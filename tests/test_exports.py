"""The package's export list: every name in ``reachkeep.__all__`` must
resolve, so ``from reachkeep import *`` works after a name is deleted."""

from __future__ import annotations

import reachkeep


def test_every_exported_name_resolves():
    missing = [name for name in reachkeep.__all__ if not hasattr(reachkeep, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(set(reachkeep.__all__)) == len(reachkeep.__all__)
