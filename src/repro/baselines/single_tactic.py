"""PartIR-st: the single-tactic ablation from Figure 7.

Amalgamates a whole schedule into one tactic — every tile action is issued
first, then propagation runs *once*.  Without the tactic boundaries the
conflicting actions (e.g. batch parallelism vs ZeRO parameter sharding)
block propagation outright, activations stay replicated, and the program's
peak memory explodes — the OOMs the paper reports for PartIR-st.
"""

from __future__ import annotations

from typing import Sequence

from repro.api import ManualPartition, Tactic
from repro.core.sharding import ShardingEnv
from repro.ir.function import Function


class SingleTactic(Tactic):
    """Wrap a schedule; apply all member actions, then propagate once."""

    def __init__(self, schedule: Sequence[Tactic]):
        self.schedule = list(schedule)
        self.name = "st(" + "+".join(t.name for t in self.schedule) + ")"

    def issue_actions(self, function: Function, env: ShardingEnv) -> int:
        applied = 0
        for tactic in self.schedule:
            if not isinstance(tactic, ManualPartition):
                raise TypeError(
                    "SingleTactic amalgamates manual tactics only"
                )
            applied += tactic.issue_actions(function, env)
        return applied
