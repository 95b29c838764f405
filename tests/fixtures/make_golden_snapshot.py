#!/usr/bin/env python3
"""Write the golden snapshot fixture of the current snapshot format version.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/make_golden_snapshot.py

The fixture (``golden_snapshot_v<FORMAT_VERSION>/``) is a small durable
SD-Index — a checkpointed snapshot plus a WAL tail — written at the current
snapshot format version, together with ``expected.json`` holding the exact
(row id, ``float.hex`` score) answers of a fixed query batch.  Every later
build must keep loading each committed fixture bit-identically
(``tests/golden/test_golden_snapshot.py``); when the format version is
bumped, run this once to add the new version's fixture and keep the older
ones loading through the compatibility path.

Only run this script to add coverage at the *current* version — never to
"fix" a failing golden test, which signals a real compatibility break.  It
refuses to overwrite an existing fixture.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.persistence import FORMAT_VERSION, DurableIndex
from repro.core.sdindex import SDIndex

FIXTURE = Path(__file__).resolve().parent / f"golden_snapshot_v{FORMAT_VERSION}"
REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)


def main() -> None:
    rng = np.random.default_rng(20260729)
    data = rng.random((80, 4))
    queries = rng.random((4, 4))

    if FIXTURE.exists():
        raise SystemExit(f"{FIXTURE} exists; a committed fixture is never rewritten")
    index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    durable = DurableIndex.create(index, FIXTURE / "store")
    for _ in range(10):
        durable.insert(rng.random(4))
    durable.delete(3)
    durable.delete(85)
    durable.checkpoint(extra={"fixture": f"golden-v{FORMAT_VERSION}"})
    # A WAL tail past the checkpoint, so loaders must replay to match.
    for _ in range(5):
        durable.insert(rng.random(4))
    durable.delete(7)
    answers = durable.batch_query(queries, k=5)
    durable.close()

    expected = {
        "queries": [[float(v) for v in q] for q in queries],
        "k": 5,
        "results": [
            [[int(m.row_id), float(m.score).hex()] for m in result.matches]
            for result in answers.results
        ],
    }
    with open(FIXTURE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
