import sys
from pathlib import Path

# after PYTHONPATH, so that PYTHONPATH=<another tree>/src measures that tree
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))
