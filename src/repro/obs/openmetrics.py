"""OpenMetrics / JSON exporters for :class:`~repro.obs.metrics.MetricsRegistry`.

``to_openmetrics`` renders the registry in the OpenMetrics text
exposition format (the Prometheus-compatible superset): ``# TYPE`` /
``# HELP`` metadata, ``_total``-suffixed counter samples, cumulative
``le``-labeled histogram buckets and a terminating ``# EOF``.
``parse_openmetrics`` is the matching (subset) parser, used by the test
suite for round-trip validation and by CI's metrics export smoke.

This file is on the DET-lint allowlist (see
``repro.analysis.lint.UNRESTRICTED_FILES``): :func:`to_json`
stamps exports with the wall-clock timestamp, exactly like the
experiment runner stamps manifests — provenance is about the host world,
not the simulated one, so it lives outside the deterministic core even
though the module sits in ``repro.obs`` next to the registry it exports.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import Optional

from repro.obs.metrics import COUNTER_SUFFIX, Family, MetricsRegistry

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def escape_label_value(value: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _labelset(names, values, extra: Optional[tuple[str, str]] = None) -> str:
    pairs = [
        f'{n}="{escape_label_value(v)}"' for n, v in zip(names, values)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _exemplar_bucket(child, value: int) -> int:
    """Index of the bucket an observation of ``value`` landed in (the
    same arithmetic as :meth:`~repro.obs.metrics.Histogram.observe`)."""
    v = int(value)
    if v <= 1:
        return 0
    idx = (v - 1).bit_length()
    last = len(child.counts) - 1
    return idx if idx <= last else last


def _render_exemplar(labels: dict, value) -> str:
    pairs = ",".join(
        f'{n}="{escape_label_value(str(v))}"' for n, v in sorted(labels.items())
    )
    return f" # {{{pairs}}} {_fmt_value(value)}"


def _render_family(fam: Family, lines: list[str],
                   exemplars: Optional[dict] = None) -> None:
    name = fam.name
    lines.append(f"# TYPE {name} {fam.type}")
    if fam.help:
        lines.append(f"# HELP {name} {_escape_help(fam.help)}")
    names = fam.label_names
    fam_ex = exemplars.get(name) if exemplars else None
    for values, child in fam.samples():
        if fam.type == "counter":
            lines.append(
                f"{name}{COUNTER_SUFFIX}{_labelset(names, values)} "
                f"{_fmt_value(child.value)}"
            )
        elif fam.type == "gauge":
            lines.append(
                f"{name}{_labelset(names, values)} {_fmt_value(child.value)}"
            )
        else:  # histogram
            ex = fam_ex.get(values) if fam_ex else None
            ex_bucket = _exemplar_bucket(child, ex[1]) if ex else -1
            for i, (bound, cum) in enumerate(
                zip(child.bucket_bounds(), child.cumulative())
            ):
                le = "+Inf" if bound == float("inf") else str(bound)
                line = (
                    f"{name}_bucket{_labelset(names, values, ('le', le))} {cum}"
                )
                if i == ex_bucket:
                    line += _render_exemplar(ex[0], ex[1])
                lines.append(line)
            lines.append(
                f"{name}_sum{_labelset(names, values)} {_fmt_value(child.sum)}"
            )
            lines.append(
                f"{name}_count{_labelset(names, values)} {child.count}"
            )


def to_openmetrics(registry: MetricsRegistry,
                   exemplars: Optional[dict] = None) -> str:
    """The registry in OpenMetrics text format, ``# EOF``-terminated.

    ``exemplars`` — optional OpenMetrics exemplars, keyed
    ``{family name: {label-value tuple: (exemplar labels, value)}}`` (the
    shape :meth:`repro.obs.spans.StallAttribution.exemplars` returns).
    Each lands on the bucket line its value falls into, so a scrape can
    jump from a latency bucket straight to the slowest trace id in it.
    """
    lines: list[str] = []
    for fam in registry.families():
        _render_family(fam, lines, exemplars)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def to_table(registry: MetricsRegistry) -> str:
    """A compact human-readable rendering (``--format table``)."""
    lines: list[str] = []
    for fam in registry.families():
        suffix = COUNTER_SUFFIX if fam.type == "counter" else ""
        lines.append(f"{fam.name}{suffix} ({fam.type}) — {fam.help}")
        for values, child in fam.samples():
            label = ",".join(values) or "-"
            if fam.type == "histogram":
                mean = child.sum / child.count if child.count else 0.0
                lines.append(
                    f"  {label:<24} count={child.count} sum={child.sum} "
                    f"mean={mean:.1f}"
                )
            else:
                lines.append(f"  {label:<24} {child.value}")
    return "\n".join(lines) + "\n"


def to_json(
    registry: MetricsRegistry, provenance: Optional[dict] = None
) -> str:
    """A provenance-stamped JSON snapshot of the registry (stamped with
    the code identity and the current time unless ``provenance`` is
    given)."""
    if provenance is None:
        from repro.obs.manifest import provenance as code_provenance

        provenance = code_provenance(timestamp=datetime.now(
            timezone.utc).isoformat(timespec="seconds"))
    payload = {
        "provenance": provenance,
        "families": registry.snapshot(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# parser (round-trip validation; subset of the OpenMetrics grammar)
# ----------------------------------------------------------------------


class OpenMetricsParseError(ValueError):
    pass


def _split_exemplar(line: str) -> tuple[str, Optional[str]]:
    """Split a sample line from its exemplar at the `` # `` that sits
    *outside* quoted label values.

    A naive ``line.partition(" # ")`` truncates samples whose label
    values contain a literal ``" # "`` (only ``\\``, ``"`` and newlines
    are escaped, so the sequence can appear raw inside quotes) — this
    scanner tracks quoting so only a real exemplar separator splits.
    """
    in_quotes = False
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if in_quotes:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_quotes = False
        elif ch == '"':
            in_quotes = True
        elif ch == " " and line.startswith(" # ", i):
            return line[:i], line[i + 3:]
        i += 1
    return line, None


def _parse_value(text: str, lineno: int):
    """A sample value, preserving the int/float distinction the exporter
    wrote (``5`` stays ``int``, ``5.0`` stays ``float``) so a re-render
    reproduces the original bytes."""
    try:
        if not any(c in text for c in ".eEnN"):
            return int(text)
        return float(text)
    except ValueError as exc:
        raise OpenMetricsParseError(
            f"line {lineno}: bad value {text!r}") from exc


def _parse_exemplar(text: str, lineno: int) -> dict:
    """``{labels} value`` after the exemplar separator."""
    text = text.strip()
    if not text.startswith("{"):
        raise OpenMetricsParseError(
            f"line {lineno}: malformed exemplar {text!r}")
    close = text.rindex("}")
    labels = _parse_labels(text[1:close])
    return {
        "labels": labels,
        "value": _parse_value(text[close + 1:].strip(), lineno),
    }


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq]
        if text[eq + 1] != '"':
            raise OpenMetricsParseError(f"unquoted label value near {text[i:]!r}")
        j = eq + 2
        value = []
        while text[j] != '"':
            if text[j] == "\\":
                nxt = text[j + 1]
                value.append({"\\": "\\", '"': '"', "n": "\n"}[nxt])
                j += 2
            else:
                value.append(text[j])
                j += 1
        labels[name] = "".join(value)
        i = j + 1
        if i < len(text):
            if text[i] != ",":
                raise OpenMetricsParseError(f"expected ',' near {text[i:]!r}")
            i += 1
    return labels


def parse_openmetrics(
    text: str, exemplars: Optional[dict] = None
) -> dict[str, dict]:
    """Parse an exposition back into ``{family: {type, help, samples}}``.

    ``samples`` maps the full sample name to a list of
    ``(labels dict, value)`` pairs (ints stay ints, so a re-render is
    byte-identical).  Raises :class:`OpenMetricsParseError` on malformed
    input, samples preceding their ``# TYPE`` line, or a missing
    ``# EOF`` terminator.

    ``exemplars`` — optionally pass a dict to capture exemplar
    annotations: it is filled with ``{family: [{"sample", "labels",
    "exemplar": {"labels", "value"}}, ...]}`` in exposition order (kept
    out of the return value so two expositions differing only in
    exemplars still parse equal).
    """
    families: dict[str, dict] = {}
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if saw_eof:
            raise OpenMetricsParseError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, type_ = rest.partition(" ")
            families[name] = {"type": type_, "help": "", "samples": {}}
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_ = rest.partition(" ")
            if name not in families:
                raise OpenMetricsParseError(
                    f"line {lineno}: HELP for undeclared family {name!r}")
            families[name]["help"] = help_
            continue
        if line.startswith("#"):
            continue
        # A sample: name{labels} value [# {exemplar labels} exemplar]
        body, exemplar_text = _split_exemplar(line)
        brace = body.find("{")
        if brace >= 0:
            close = body.rindex("}")
            sample_name = body[:brace]
            labels = _parse_labels(body[brace + 1:close])
            value_text = body[close + 1:].strip()
        else:
            sample_name, _, value_text = body.partition(" ")
            labels = {}
        family = _family_of(sample_name, families)
        if family is None:
            raise OpenMetricsParseError(
                f"line {lineno}: sample {sample_name!r} precedes its TYPE")
        value = _parse_value(value_text, lineno)
        families[family]["samples"].setdefault(sample_name, []).append(
            (labels, value)
        )
        if exemplar_text is not None and exemplars is not None:
            exemplars.setdefault(family, []).append({
                "sample": sample_name,
                "labels": labels,
                "exemplar": _parse_exemplar(exemplar_text, lineno),
            })
    if not saw_eof:
        raise OpenMetricsParseError("missing # EOF terminator")
    return families


def render_openmetrics(families: dict[str, dict],
                       exemplars: Optional[dict] = None) -> str:
    """Re-render a :func:`parse_openmetrics` result back to text.

    For exporter-produced expositions the render is byte-identical to
    the original — including exemplar annotations when the ``exemplars``
    capture dict from the parse is passed back in — which is the
    round-trip property the test suite certifies (parse → render →
    parse is then trivially lossless).
    """
    lines: list[str] = []
    for name, fam in families.items():
        lines.append(f"# TYPE {name} {fam['type']}")
        if fam.get("help"):
            lines.append(f"# HELP {name} {fam['help']}")
        fam_ex = list((exemplars or {}).get(name, ()))
        if fam["type"] == "histogram":
            _render_parsed_histogram(name, fam["samples"], fam_ex, lines)
        else:
            for sample_name, entries in fam["samples"].items():
                for labels, value in entries:
                    lines.append(_sample_line(sample_name, labels, value))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _sample_line(sample_name: str, labels: dict, value,
                 exemplar: Optional[dict] = None) -> str:
    pairs = ",".join(
        f'{n}="{escape_label_value(v)}"' for n, v in labels.items()
    )
    line = f"{sample_name}{{{pairs}}}" if pairs else sample_name
    line += f" {_fmt_value(value)}"
    if exemplar is not None:
        ex_pairs = ",".join(
            f'{n}="{escape_label_value(str(v))}"'
            for n, v in exemplar["labels"].items()
        )
        line += f" # {{{ex_pairs}}} {_fmt_value(exemplar['value'])}"
    return line


def _render_parsed_histogram(name: str, samples: dict, fam_ex: list,
                             lines: list[str]) -> None:
    """Re-interleave parsed histogram samples into the exporter's line
    order: per labelset, every bucket line, then ``_sum``, ``_count``."""

    def exemplar_for(sample_name: str, labels: dict) -> Optional[dict]:
        for i, entry in enumerate(fam_ex):
            if entry["sample"] == sample_name and entry["labels"] == labels:
                return fam_ex.pop(i)["exemplar"]
        return None

    buckets = samples.get(f"{name}_bucket", [])
    sums = samples.get(f"{name}_sum", [])
    counts = samples.get(f"{name}_count", [])
    group = 0  # index into sums/counts: one labelset per (sum, count)
    prev_base: Optional[dict] = None
    for labels, value in buckets:
        base = {k: v for k, v in labels.items() if k != "le"}
        if prev_base is not None and base != prev_base:
            _emit_sum_count(name, sums, counts, group, lines)
            group += 1
        prev_base = base
        lines.append(_sample_line(
            f"{name}_bucket", labels, value,
            exemplar_for(f"{name}_bucket", labels)))
    if prev_base is not None:
        _emit_sum_count(name, sums, counts, group, lines)
        group += 1
    # Sums/counts beyond the bucket groups (shouldn't happen for
    # exporter output, but parsed input is re-rendered faithfully).
    for i in range(group, max(len(sums), len(counts))):
        _emit_sum_count(name, sums, counts, i, lines)


def _emit_sum_count(name: str, sums: list, counts: list, i: int,
                    lines: list[str]) -> None:
    if i < len(sums):
        lines.append(_sample_line(f"{name}_sum", *sums[i]))
    if i < len(counts):
        lines.append(_sample_line(f"{name}_count", *counts[i]))


def _family_of(sample_name: str, families: dict) -> Optional[str]:
    if sample_name in families:
        return sample_name
    for suffix in (COUNTER_SUFFIX, "_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families:
                return base
    return None
