"""Digital twins: copied world forks for what-if evaluation."""

from dcrobot.twin.world import TwinFabric, TwinWorld

__all__ = ["TwinFabric", "TwinWorld"]
