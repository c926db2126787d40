"""Fault tolerance for mobile computations (paper section 5).

Rear guards that relaunch a vanished agent when their timeout expires (the
one failure detector, on every transport), durable checkpoints that revive
them after a crash, and the fault-tolerant itinerant agent the experiments
compare against an unprotected baseline.
"""

from repro.fault.ftmove import (FT_VISITOR_NAME, PLAIN_VISITOR_NAME, RESULTS_CABINET,
                                completions, fan_out_ids, ft_visitor_behaviour,
                                launch_ft_computation, launch_plain_computation,
                                plain_visitor_behaviour)
from repro.fault.rearguard import (CHECKPOINTS_FOLDER, REAR_GUARD_NAME,
                                   REARGUARD_CABINET, RELEASE_AGENT_NAME, guard_snapshot,
                                   install_fault_agents, make_release_folder,
                                   make_relaunch_ack_folder, pending_guards,
                                   prune_released_checkpoints, rear_guard_behaviour,
                                   release_agent_behaviour)
from repro.fault.recovery import (REVIVED_FOLDER, durable_ft_cabinets,
                                  enable_durable_protection,
                                  install_checkpoint_recovery, record_checkpoint,
                                  revive_checkpoints)

__all__ = [
    "REAR_GUARD_NAME", "RELEASE_AGENT_NAME", "REARGUARD_CABINET",
    "rear_guard_behaviour", "release_agent_behaviour", "guard_snapshot",
    "install_fault_agents",
    "pending_guards", "make_release_folder", "make_relaunch_ack_folder",
    "prune_released_checkpoints",
    "CHECKPOINTS_FOLDER", "REVIVED_FOLDER", "durable_ft_cabinets",
    "record_checkpoint", "install_checkpoint_recovery",
    "enable_durable_protection", "revive_checkpoints",
    "FT_VISITOR_NAME", "PLAIN_VISITOR_NAME", "RESULTS_CABINET",
    "ft_visitor_behaviour", "plain_visitor_behaviour",
    "launch_ft_computation", "launch_plain_computation", "completions", "fan_out_ids",
]
