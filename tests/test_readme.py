import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_keeps_its_promises(capsys):
    # the README's "## Library" block runs as printed, and the two claims
    # under it hold for its output: streamed confirmations plus the flush
    # equal the offline change points, each confirmed at t + 2*beta
    block = README.read_text().split("## Library", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(compile(block.split("```", 1)[0], str(README), "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    arrivals = [re.fullmatch(r"change at (\d+), confirmed at arrival (\d+)", line) for line in lines]
    assert arrivals and all(arrivals)
    streamed = [(int(m[1]), int(m[2])) for m in arrivals]
    assert [cp for cp, _ in streamed] + namespace["tail"] == namespace["result"].change_points
    beta = namespace["config"].beta
    assert all(arrival == cp + 2 * beta for cp, arrival in streamed)
