"""repro: root-cause analysis for mobile video streaming QoE.

A full reproduction of "Identifying the Root Cause of Video Streaming
Issues on Mobile Devices" (Dimopoulos et al., CoNEXT 2015): a simulated
testbed (network, WiFi, TCP, video delivery, faults, probes) plus the
paper's multi-vantage-point machine-learning diagnosis framework.

Quickstart::

    from repro import RootCauseAnalyzer, controlled_dataset

    dataset = controlled_dataset(n_instances=200)   # simulate ground truth
    analyzer = RootCauseAnalyzer(vps=("mobile",))   # phone-only deployment
    analyzer.fit(dataset)
    report = analyzer.diagnose(dataset[0])
    print(report.summary())

See ``examples/`` for runnable end-to-end scenarios and ``benchmarks/``
for the reproduction of every table and figure in the paper.

``import repro`` is lazy: each name below is imported from its defining
module on first access, so importing one subpackage loads only what it
uses.
"""

from typing import TYPE_CHECKING, Dict, Tuple

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.core.dataset import Dataset, Instance
    from repro.core.diagnosis import DiagnosisReport, RootCauseAnalyzer
    from repro.experiments.common import (
        controlled_dataset,
        realworld_dataset,
        wild_dataset,
    )
    from repro.pipeline.diagnose import DiagnoseStage
    from repro.pipeline.pipeline import Pipeline
    from repro.pipeline.sinks import DatasetSink, JsonlSink
    from repro.pipeline.sources import CampaignSource, JsonlSource
    from repro.record import SessionRecord
    from repro.testbed.campaign import CampaignConfig, iter_campaign, run_campaign
    from repro.testbed.testbed import Testbed, TestbedConfig
    from repro.video.catalog import VideoCatalog, VideoProfile

__version__ = "1.0.0"

#: module -> the public names it defines.  A name is imported on first
#: access (PEP 562), so ``import repro`` -- which every ``import
#: repro.<sub>`` runs -- loads nothing: the diagnosis side (``repro.api``,
#: ``repro.serve``) never pays for the simulator.
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "repro.core.dataset": ("Dataset", "Instance"),
    "repro.core.diagnosis": ("DiagnosisReport", "RootCauseAnalyzer"),
    "repro.experiments.common": (
        "controlled_dataset", "realworld_dataset", "wild_dataset"),
    "repro.pipeline.diagnose": ("DiagnoseStage",),
    "repro.pipeline.pipeline": ("Pipeline",),
    "repro.pipeline.sinks": ("DatasetSink", "JsonlSink"),
    "repro.pipeline.sources": ("CampaignSource", "JsonlSource"),
    "repro.record": ("SessionRecord",),
    "repro.testbed.campaign": ("CampaignConfig", "iter_campaign", "run_campaign"),
    "repro.testbed.testbed": ("Testbed", "TestbedConfig"),
    "repro.video.catalog": ("VideoCatalog", "VideoProfile"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS, eager=("__version__",))
