import os
import sys
import tempfile
from pathlib import Path

# Bytecode goes outside the checkout, for this process and for the
# interpreters the tests launch, so a test run leaves no __pycache__ under
# src/ that a later run from a copy of the tree would import.
os.environ.setdefault("PYTHONPYCACHEPREFIX", os.path.join(tempfile.gettempdir(), "qhurwitz-pycache"))
sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
sys.path.insert(0, str(Path(__file__).parent / "src"))
