import sys
from pathlib import Path

# the self-tests import the solver from this checkout's source tree
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
