"""Observer outputs are pinned, and no observer changes a result.

Two nets under every change to the observation path:

* **Pinned outputs.**  One small spec per machine flavour (coma, hcoma,
  numa) runs under each observer configuration below, and the sha256 of
  what the observer produced must equal the digest recorded here:

  - the :class:`JsonlTraceSink` bytes on their own (flat events only);
  - the JSONL bytes when teed with :class:`StallAttribution` (span
    events then ride the same stream);
  - the ``to_openmetrics`` text of a :class:`MetricsRegistry`
    (coma and hcoma);
  - the :class:`StallAttribution` JSON report and its OpenMetrics
    exemplars;
  - the :class:`BoundsCertifier` report with its ``checked`` count;
  - the :class:`ChromeTraceSink` output with span drawing on;
  - the benchmark's ``observed`` pair on a tiny fft spec: a
    :class:`MetricsRegistry` and ``StallAttribution(top_spans=4)``
    attached in that order, pinned as the OpenMetrics text followed by
    the attribution report.

* **Observer invariance.**  Over coma, hcoma, numa and uma at 6.25 % and
  87.5 % memory pressure, on one synthetic and one SPLASH-2 workload,
  ``SimulationResult.to_dict()`` with each observer attached equals the
  bare run's (uma skips the bounds certifier, which has no UMA
  envelope).

Select with ``-k observe``.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from repro.analysis.bounds import BoundsCertifier, envelope_for
from repro.analysis.sanitize import sanitizer_for
from repro.experiments.runner import RunSpec, build_simulation
from repro.obs.chrometrace import ChromeTraceSink
from repro.obs.jsonl import JsonlTraceSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import to_openmetrics
from repro.obs.spans import StallAttribution
from repro.obs.timeline import TimelineSampler

pytestmark = pytest.mark.observe


def _spec(machine: str, workload: str = "barnes",
          memory_pressure: float = 0.875) -> RunSpec:
    return RunSpec(workload=workload, machine=machine, scale=0.05,
                   n_processors=8, procs_per_node=2, hierarchy_groups=2,
                   memory_pressure=memory_pressure)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# pinned observer outputs
# ----------------------------------------------------------------------

def _jsonl(machine: str, with_attribution: bool) -> tuple[str, str, str]:
    """(JSONL text, attribution report JSON, exemplars), the last two
    empty without attribution."""
    buf = io.StringIO()
    sink = JsonlTraceSink(buf)
    sim = build_simulation(_spec(machine))
    sim.attach(sink)
    att = None
    if with_attribution:
        att = StallAttribution(top_spans=4)
        sim.attach(att)
    sim.run()
    sink.close()
    if att is None:
        return buf.getvalue(), "", ""
    return (buf.getvalue(), json.dumps(att.report(), sort_keys=True),
            repr(att.exemplars()))


def _metrics(machine: str) -> str:
    reg = MetricsRegistry()
    sim = build_simulation(_spec(machine))
    sim.attach(reg)
    sim.run()
    return to_openmetrics(reg)


def _bounds(machine: str) -> str:
    """The certifier's report on a clean run, then on one whose buses
    are 8 ns slower than the envelope says (B101 findings, witnesses)."""
    out = []
    for slower in (0, 8):
        sim = build_simulation(_spec(machine))
        cert = BoundsCertifier(
            envelope_for(machine, sim.machine.config.timing))
        for bus in sim.machine.buses:
            bus._phase_ns += slower
        sim.attach(cert)
        sim.run()
        cert.finalize()
        out.append(json.dumps(cert.report(), sort_keys=True)
                   + f"\nchecked={cert.checked}")
    return "\n".join(out)


def _observed(machine: str) -> str:
    """The benchmark's ``observed`` pair, attached in its order."""
    spec = RunSpec(workload="fft", machine=machine, scale=0.05,
                   n_processors=8, procs_per_node=4, hierarchy_groups=2,
                   memory_pressure=13 / 16)
    sim = build_simulation(spec)
    reg = MetricsRegistry()
    att = StallAttribution(top_spans=4)
    sim.attach(reg)
    sim.attach(att)
    sim.run()
    return to_openmetrics(reg) + json.dumps(att.report(), sort_keys=True)


def _chrome(machine: str) -> str:
    sink = ChromeTraceSink()
    sink.wants_spans = True
    sim = build_simulation(_spec(machine))
    sim.attach(sink)
    sim.run()
    return sink.to_json()


#: Digests recorded before the observation channels were merged (the
#: exemplar, bounds and observed-pair digests: before span trees were
#: delivered whole); any change here is a change in what an observer
#: sees.
PINNED = {
    "coma": {
        "jsonl": "d8f17754dd82159881a1037b6a712fffae4626a742a0e99626c3f95e36735ae2",
        "jsonl+attribution": "fd57ec877724c5629b0666b0f3ab136483e857a62f360e94050e1e0b12e7e629",
        "attribution": "b7cfee072e8ef2047f92fc55d75569ec73b61011462ddd1279e29e068a715869",
        "metrics": "cb3c2967f2ab4a8a20028e2cfd6eb681ab86eb3a02363f45e0ec56d51661106f",
        "exemplars": "752f4fb3f2d7664cb80468fe95b54d7235ab45293cbb18f313f0fc0ac868576c",
        "bounds": "abb0abb4e2c601318d446d373b8f083859c2d162086e720612360d1e90e5ae67",
        "observed": "4ae7cf2dbcf3091fc4d42ec8d8f5ea513d1cc9b60060613cd7134019b0f44898",
        "chrome": "a7d037a13c27d6d086fde6ef01edd6c2194e20e0f2d53b1e1e4bc1056f847d6c",
    },
    "hcoma": {
        "jsonl": "6764533d5b16ea9946668efb552d9913f328d3d97d3acdfee8f4e1ee588931f1",
        "jsonl+attribution": "c0fc464bf10e9e390831cfb02a9f500772fad4b8d306200300eaba49e5910623",
        "attribution": "8f9909cd536e2be20262c88268857a9959059ccb9ef2113a6887eaea131c5019",
        "metrics": "ec9262edeece2d5608fd0666072bf66556f1e5750466c69524173a6c55bb1285",
        "exemplars": "7e49b7085af29db4b78bba5294a0bfdea81190d3c3afb6fb7a80847e87a2222c",
        "bounds": "ed13d177c71f29a065e801f048556a7be8ef546616b2a689062dc0987d22c42e",
        "observed": "f24257518aacfb8c6bbe49d03e76a0e23e418f1b569bd19fad3f3415fb023022",
        "chrome": "142da24d44b9be8889bf50b54141c6f369323a444a3c6248817e7dfc02fcfc5b",
    },
    "numa": {
        "jsonl": "0448e6268df342d2b66bdf0f3cb1e425d63ae29a8894064c85c4d28682866c17",
        "jsonl+attribution": "503a28e2646efcd5c79b4f0ceba5310c9c10b22c514efc2e75997ba5a7715998",
        "attribution": "c687d7d9c990be5b678a222dc3f27ecf7982a23791df13ec4942ccac139496c2",
        "exemplars": "ae3ce9e4432268badfa0e06e21fc34948c49637f68235ab59329c663e5fdd98b",
        "bounds": "0e06a6b1a81c832973da2440c3e9eb8fdffde085c425fef07d9766b0fbd6b8b8",
        "observed": "ef6259061d93d7a40b9b3df59dc0d01a3c1f0d2df344f1c65fb498207ca636ad",
        "chrome": "7e1c2513dca2e67d40b6f529f0921d11af8afec3e0624b7dadfc2fac32475528",
    },
}


def _digests(machine: str) -> dict[str, str]:
    flat, _, _ = _jsonl(machine, with_attribution=False)
    teed, report, exemplars = _jsonl(machine, with_attribution=True)
    out = {
        "jsonl": _sha(flat),
        "jsonl+attribution": _sha(teed),
        "attribution": _sha(report),
        "exemplars": _sha(exemplars),
        "bounds": _sha(_bounds(machine)),
        "observed": _sha(_observed(machine)),
        "chrome": _sha(_chrome(machine)),
    }
    if "metrics" in PINNED[machine]:
        out["metrics"] = _sha(_metrics(machine))
    return out


@pytest.mark.parametrize("machine", sorted(PINNED))
def test_observer_outputs_match_pinned_digests(machine):
    assert _digests(machine) == PINNED[machine]


# ----------------------------------------------------------------------
# observer invariance
# ----------------------------------------------------------------------

def _attach(kind: str, sim, spec: RunSpec) -> None:
    if kind == "metrics":
        sim.attach(MetricsRegistry())
    elif kind == "attribution":
        sim.attach(StallAttribution(top_spans=2))
    elif kind == "sanitizer":
        sim.attach(sanitizer_for(sim))
    elif kind == "bounds":
        sim.attach(BoundsCertifier(
            envelope_for(spec.machine, sim.machine.config.timing)))
    elif kind == "timeline":
        sim.attach(TimelineSampler(), every=200)


OBSERVERS = ("metrics", "attribution", "sanitizer", "bounds", "timeline")
GRID = [
    (machine, workload, mp)
    for machine in ("coma", "hcoma", "numa", "uma")
    for workload in ("synth_migratory", "fft")
    for mp in (0.0625, 0.875)
]


@pytest.mark.parametrize("machine,workload,mp", GRID)
def test_observers_never_change_the_result(machine, workload, mp):
    spec = _spec(machine, workload, mp)
    bare = build_simulation(spec).run().to_dict()
    for kind in OBSERVERS:
        if kind == "bounds" and machine == "uma":
            continue  # envelope_for has no UMA flavour
        sim = build_simulation(spec)
        _attach(kind, sim, spec)
        assert sim.run().to_dict() == bare, kind
