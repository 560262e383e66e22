"""The benchmark's workloads, by name."""

from perfbench.workloads.campaign_modes import CampaignModes
from perfbench.workloads.detect_stream import DetectStream
from perfbench.workloads.pipeline_smoke import PipelineSmoke
from perfbench.workloads.refine_bench import RefineBench

WORKLOADS = {
    w.name: w for w in (PipelineSmoke, RefineBench, CampaignModes, DetectStream)
}

__all__ = ["WORKLOADS"]
