"""Span tracer that times calls into spatsim's public functions from outside
the package.

`Tracer.install()` replaces each listed function in every `spatsim.*`
namespace that binds it (the harness, metrics and localization modules
import names directly) and each listed method on its class. `uninstall()`
puts the originals back. Spans (name, start, end, parent) are kept in memory;
self time is a span's duration minus the durations of its direct children.
The time spent in the wrappers themselves is summed in `overhead_s`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute path).
TRACED = {
    "hrir.synth_sphere_hrir": ("spatsim.hrir", "synth_sphere_hrir"),
    "hrir.translate_listener": ("spatsim.hrir", "translate_listener"),
    "hrir.interpolate_direction": ("spatsim.hrir", "interpolate_direction"),
    "sphere.sphere_transfer": ("spatsim.sphere", "sphere_transfer"),
    "haalgo.design_mvdr": ("spatsim.haalgo", "design_mvdr"),
    "haalgo.shadow": ("spatsim.haalgo", "SpectralGainAlgorithm.shadow"),
    "haalgo.process": ("spatsim.haalgo", "SpectralGainAlgorithm.process"),
    "stft.analyze": ("spatsim.stft", "StftProcessor.analyze"),
    "stft.synthesize": ("spatsim.stft", "StftProcessor.synthesize"),
    "binsim.ReceiverBank": ("spatsim.binsim", "ReceiverBank.__init__"),
    "binsim.render_source": ("spatsim.binsim", "render_source"),
    "binsim.render_reference": ("spatsim.binsim", "render_reference"),
    "binsim.render_scene_stems": ("spatsim.binsim", "render_scene_stems"),
    "dsp.delay_signal": ("spatsim.dsp", "delay_signal"),
    "localization.build_cue_lookup": ("spatsim.localization",
                                      "build_cue_lookup"),
    "localization.extract_cues": ("spatsim.localization", "extract_cues"),
    "localization.gammatone_band": ("spatsim.localization", "gammatone_band"),
    "localization.localize": ("spatsim.localization", "localize"),
    "metrics.beam_pattern": ("spatsim.metrics", "beam_pattern"),
    "metrics.snr_improvement": ("spatsim.metrics", "snr_improvement"),
    "metrics.third_octave_analyze": ("spatsim.metrics",
                                     "third_octave_analyze"),
    "metrics.spectral_distance": ("spatsim.metrics", "spectral_distance"),
    "signals.make_default_scene": ("spatsim.signals", "make_default_scene"),
}

SHADOW_ALGORITHMS = ("beamformer", "adm", "coherence_nr", "single_nr")
# Spans directly under run_sweep that come before the first pose context.
SETUP_SPANS = ("hrir.synth_sphere_hrir", "haalgo.design_mvdr",
               "localization.build_cue_lookup")

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
LAYER_METRICS = (
    "hrir.synth_sphere_hrir.s",
    "hrir.translate_listener.s", "hrir.translate_listener.calls",
    "hrir.translate_listener.repeat_ratio",
    "hrir.interpolate_direction.s", "hrir.interpolate_direction.calls",
    "hrir.interpolate_direction.offgrid_ratio",
    "sphere.sphere_transfer.s",
    "haalgo.design_mvdr.s",
    "haalgo.shadow.s", "haalgo.shadow.calls",
    *(f"haalgo.shadow.{a}.s" for a in SHADOW_ALGORITHMS),
    "haalgo.process.s", "haalgo.process.calls",
    "stft.analyze.s", "stft.analyze.calls", "stft.analyze.frames",
    "stft.synthesize.s", "stft.synthesize.calls",
    "binsim.ReceiverBank.s", "binsim.ReceiverBank.calls",
    "binsim.render_source.s", "binsim.render_source.calls",
    "binsim.render_reference.s", "binsim.render_reference.calls",
    "binsim.render_scene_stems.s", "binsim.render_scene_stems.calls",
    "dsp.delay_signal.s", "dsp.delay_signal.calls",
    "localization.build_cue_lookup.s",
    "localization.extract_cues.s", "localization.extract_cues.calls",
    "localization.extract_cues.samples",
    "localization.gammatone_band.s", "localization.gammatone_band.calls",
    "localization.localize.calls", "localization.localize.no_estimate_ratio",
    "localization.localize.fine_glimpses",
    "metrics.beam_pattern.s", "metrics.beam_pattern.calls",
    "metrics.snr_improvement.s", "metrics.snr_improvement.calls",
    "metrics.third_octave_analyze.s", "metrics.third_octave_analyze.calls",
    "metrics.spectral_distance.s", "metrics.spectral_distance.calls",
    "signals.make_default_scene.s",
    "harness.pose_context.s", "harness.self.s", "harness.write_outputs.s",
)


class Tracer:
    def __init__(self):
        self.spans = []                 # (name, start, end, parent index)
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.algorithm_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []                # open span indices
        self._child_s = []              # child time of each open span
        self._patches = []              # (owner, attribute, original)
        self._seen_translations = set()
        self.overhead_s = 0.0           # time spent in the wrappers themselves

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self._child_s.append(0.0)
        return index, parent

    def _exit(self, index, parent, name, start, end, extra_name=None):
        self._stack.pop()
        child = self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += end - start
        self.spans[index] = (name, start, end, parent)
        own = end - start - child
        self.self_s[name] += own
        self.counts[name + ".calls"] += 1
        if extra_name is not None:
            self.algorithm_s[extra_name] += own

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code."""
        index, parent = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(index, parent, name, start, time.perf_counter())

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        count = self._counter(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            # The algorithm's own name splits shadow time per algorithm.
            extra = (f"{name}.{args[0].name}" if name == "haalgo.shadow"
                     else None)
            index, parent = tracer._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._exit(index, parent, name, start, end, extra)
            if count is not None:
                count(args, result)
            tracer.overhead_s += time.perf_counter() - entered - (end - start)
            return result

        return traced

    def _counter(self, name):
        """Per-call counter for the layers that report more than time."""
        c = self.counts
        if name == "hrir.translate_listener":
            def count(args, result):
                hrir_set, pose, speaker = args[:3]
                key = (id(hrir_set), hrir_set.channels, pose, speaker)
                if key in self._seen_translations:
                    c[name + ".repeats"] += 1
                self._seen_translations.add(key)
        elif name == "hrir.interpolate_direction":
            def count(args, result):
                hrir_set, azimuth = args[:2]
                if hrir_set.grid_index(azimuth) is None:
                    c[name + ".offgrid"] += 1
        elif name == "stft.analyze":
            def count(args, result):
                c[name + ".frames"] += result.shape[-2]
        elif name == "localization.extract_cues":
            def count(args, result):
                c[name + ".samples"] += args[0].samples.shape[-1]
        elif name == "localization.localize":
            def count(args, result):
                c[name + ".fine_glimpses"] += result.fine_glimpses
                if result.fine_azimuth is None:
                    c[name + ".no_estimate"] += 1
        else:
            count = None
        return count

    def install(self):
        for name, (module_name, path) in TRACED.items():
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                base = getattr(module, cls_name)
                # Subclasses that override the method are traced as well.
                for cls in vars(module).values():
                    if (isinstance(cls, type) and issubclass(cls, base)
                            and attr in vars(cls)):
                        self._patch(cls, attr, self._wrap(name,
                                                          vars(cls)[attr]))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "spatsim" and not mod_name.startswith(
                        "spatsim."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, first_cell, run_span_start):
        """LAYER_METRICS: self seconds, call and work counts, ratios.

        `harness.pose_context.s` is the time from the start of run_sweep to
        the first cell minus the set-up spans directly under run_sweep.
        """
        out = {}
        for name in TRACED:
            out[name + ".s"] = self.self_s.get(name, 0.0)
            out[name + ".calls"] = self.counts.get(name + ".calls", 0)
        for algorithm in SHADOW_ALGORITHMS:
            key = f"haalgo.shadow.{algorithm}"
            out[key + ".s"] = self.algorithm_s.get(key, 0.0)
        for key in ("stft.analyze.frames", "localization.extract_cues.samples",
                    "localization.localize.fine_glimpses"):
            out[key] = self.counts.get(key, 0)
        for key, part in (("hrir.translate_listener.repeat_ratio",
                           "hrir.translate_listener.repeats"),
                          ("hrir.interpolate_direction.offgrid_ratio",
                           "hrir.interpolate_direction.offgrid"),
                          ("localization.localize.no_estimate_ratio",
                           "localization.localize.no_estimate")):
            calls = out[key.rsplit(".", 1)[0] + ".calls"]
            out[key] = self.counts.get(part, 0) / calls if calls else 0.0
        run_index = next(i for i, s in enumerate(self.spans)
                         if s[0] == "harness.run_sweep")
        setup = sum(end - start for name, start, end, parent in self.spans
                    if parent == run_index and name in SETUP_SPANS
                    and end <= first_cell)
        out["harness.pose_context.s"] = first_cell - run_span_start - setup
        out["harness.self.s"] = self.self_s["harness.run_sweep"]
        out["harness.write_outputs.s"] = self.self_s["harness.write_outputs"]
        return {name: out[name] for name in LAYER_METRICS}

    def self_check(self, total_s):
        """(residual, smallest self time) of the span tree.

        The residual is the summed per-layer self times plus the time no
        span covers, minus `total_s`. A residual above round-off or a
        negative self time (recomputed from the stored spans) means the
        accounting is broken.
        """
        child = defaultdict(float)
        covered = 0.0
        for name, start, end, parent in self.spans:
            if parent < 0:
                covered += end - start
            else:
                child[parent] += end - start
        smallest = min(end - start - child[i] for i, (name, start, end, parent)
                       in enumerate(self.spans))
        remainder = total_s - covered
        return sum(self.self_s.values()) + remainder - total_s, smallest

