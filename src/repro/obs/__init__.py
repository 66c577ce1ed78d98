"""Unified observability: metrics, sampling, sinks and manifests.

The layer has four pieces, all off by default:

* :mod:`repro.obs.registry` — counters, gauges and fixed-bucket
  histograms registered by name; a component built without a registry
  registers nothing and skips every instrumentation site.
* :mod:`repro.obs.sampler` — a simulation component snapshotting
  selected gauges every N cycles into a time series.
* :mod:`repro.obs.sinks` — schema-versioned JSONL writers for metrics
  and trace streams, plus validation helpers.
* :mod:`repro.obs.manifest` — the provenance record (git SHA, python,
  wall-time, peak RSS) written beside runs.

:mod:`repro.obs.runtime` holds the process-global switch the CLI flips;
:mod:`repro.obs.harness` (imported lazily — it depends on
:mod:`repro.network`) is the instrumented run path behind
``run_simulation``.  See ``docs/observability.md``.
"""

from repro.obs.registry import (
    BucketHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.runtime import DEFAULT_SAMPLE_EVERY, ObsOptions
from repro.obs.sinks import (
    JsonlTracer,
    JsonlWriter,
    MetricsSink,
    iter_jsonl,
    validate_file,
    validate_record,
)
from repro.obs.manifest import RunManifest, config_sha256
from repro.obs.sampler import CycleSampler, register_network_gauges

__all__ = [
    "BucketHistogram",
    "Counter",
    "CycleSampler",
    "DEFAULT_SAMPLE_EVERY",
    "Gauge",
    "JsonlTracer",
    "JsonlWriter",
    "MetricsRegistry",
    "MetricsSink",
    "ObsOptions",
    "RunManifest",
    "config_sha256",
    "iter_jsonl",
    "register_network_gauges",
    "validate_file",
    "validate_record",
]
