"""The CI workflow's test node ids still resolve.

``.github/workflows/tier1.yml`` re-runs a few tests by node id under fixed
hash seeds.  A renamed or removed test would fail only there, with pytest's
exit 4; this reads the workflow as text, since CI installs no YAML parser,
and checks that each ``tests/<file>.py::<name>`` names a ``def <name>`` in
that file.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
NODE_ID = re.compile(r"(tests/\w+\.py)::(\w+)")


def test_every_workflow_node_id_names_a_test():
    node_ids = NODE_ID.findall(WORKFLOW.read_text())
    assert node_ids, "the workflow names no test by node id"
    missing = [
        f"{path}::{name}"
        for path, name in node_ids
        if not re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.MULTILINE)
    ]
    assert missing == []
