"""Put the harness and the program under test on the import path.

Run with ``python -m pytest perfbench/tests -q`` from the repo root.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))
