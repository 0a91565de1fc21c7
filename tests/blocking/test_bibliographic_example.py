"""End-to-end test of ``examples/bibliographic_dedup.py``, blocking's only caller."""

import runpy
from pathlib import Path

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "bibliographic_dedup.py"


def test_example_blocks_the_exported_tables_and_cleans_up(capsys):
    runpy.run_path(str(EXAMPLE))["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert ("Blocking: 16358 candidates, pair completeness 0.90, "
            "reduction ratio 0.788") in lines
    prefix = "Wrote benchmark CSVs to "
    workdir, = (line[len(prefix):] for line in lines if line.startswith(prefix))
    assert not Path(workdir).exists()
