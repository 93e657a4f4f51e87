import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every run draws the same examples, so two runs of the suite compare like
# with like and no run writes an example database.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
