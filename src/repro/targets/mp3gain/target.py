"""The instrumented Mp3Gain target.

A test case runs "a volume-level normalisation procedure ... [taking]
a set of 25 mp3 files of varying sizes as input and normalis[ing] the
volume across each file" (Section VI-C).  The observable output is the
CRC of every normalised 16-bit track; the failure specification is the
golden diff: "a test case execution was considered a failure if the
set of normalised output files were different from those generated by
the corresponding golden run".

The ``GAnalysis`` and ``RGain`` modules are each probed at entry and
exit once per track, so probe occurrence indices count files processed
-- the paper's injection-time unit for this target.
"""

from __future__ import annotations

import copy
import dataclasses
import zlib

import numpy as np

from repro.injection.instrument import Harness, Location, VariableSpec
from repro.targets.base import TargetSystem
from repro.targets.mp3gain.analysis import GAnalysisModule
from repro.targets.mp3gain.replaygain import RGainModule
from repro.targets.mp3gain.signal import make_batch

__all__ = ["Mp3GainTarget"]


@dataclasses.dataclass
class _BatchRun:
    """One test case's state between track steps."""

    tracks: tuple[np.ndarray, ...]
    analysis: GAnalysisModule
    gain: RGainModule
    digests: list[int] = dataclasses.field(default_factory=list)

    def __deepcopy__(self, memo: dict) -> "_BatchRun":
        # The tracks are read-only input (begin() freezes them), so a
        # copy shares them instead of duplicating every PCM buffer.
        return _BatchRun(
            self.tracks,
            copy.deepcopy(self.analysis, memo),
            copy.deepcopy(self.gain, memo),
            list(self.digests),
        )


class Mp3GainTarget(TargetSystem):
    """Volume normaliser with instrumented ``GAnalysis`` and ``RGain``.

    Parameters
    ----------
    n_tracks:
        Tracks per test case (paper: 25).
    min_samples / max_samples:
        Track length range in samples ("files of varying sizes").
    """

    name = "MG"

    def __init__(
        self,
        n_tracks: int = 25,
        min_samples: int = 1024,
        max_samples: int = 4096,
    ) -> None:
        if n_tracks < 1:
            raise ValueError("need at least one track per test case")
        if not 64 <= min_samples <= max_samples:
            raise ValueError("track sizes must satisfy 64 <= min <= max")
        self.n_tracks = n_tracks
        self.min_samples = min_samples
        self.max_samples = max_samples

    @property
    def modules(self) -> tuple[str, ...]:
        return ("GAnalysis", "RGain")

    def variables_of(
        self, module: str, location: Location | None = None
    ) -> tuple[VariableSpec, ...]:
        self.check_module(module)
        if module == "GAnalysis":
            entry = (
                VariableSpec("track_index", "int32"),
                VariableSpec("frame_size", "int32"),
                VariableSpec("percentile", "float64"),
                VariableSpec("n_samples", "int32"),
                VariableSpec("rms_acc", "float64"),
                VariableSpec("peak_acc", "float64"),
            )
            exit_specs = (
                VariableSpec("track_index", "int32"),
                VariableSpec("frame_size", "int32"),
                VariableSpec("percentile", "float64"),
                VariableSpec("n_samples", "int32"),
                VariableSpec("loudness_db", "float64"),
                VariableSpec("peak", "float64"),
                VariableSpec("frame_count", "int32"),
            )
        else:
            entry = (
                VariableSpec("track_index", "int32"),
                VariableSpec("gain_db", "float64"),
                VariableSpec("reference_db", "float64"),
                VariableSpec("loudness_db", "float64"),
                VariableSpec("peak", "float64"),
                VariableSpec("clip_count", "int32"),
            )
            exit_specs = entry + (
                VariableSpec("applied_scale", "float64"),
                VariableSpec("out_rms", "float64"),
            )
        if location is Location.ENTRY:
            return entry
        if location is Location.EXIT:
            return exit_specs
        seen: dict[str, VariableSpec] = {}
        for spec in entry + exit_specs:
            seen.setdefault(spec.name, spec)
        return tuple(seen.values())

    def module_sources(self, module: str) -> tuple | None:
        # GAnalysis output feeds RGain within one batch run, so the
        # closure is conservatively the whole package: any edit
        # invalidates both modules' stored shards rather than risking a
        # stale hit.
        self.check_module(module)
        from repro.targets.mp3gain import analysis, replaygain, signal
        import repro.targets.mp3gain.target as target

        return (target, analysis, replaygain, signal)

    # ------------------------------------------------------------------
    # Step protocol: one step per track
    # ------------------------------------------------------------------
    def begin(self, test_case: int) -> _BatchRun:
        tracks = make_batch(
            test_case, self.n_tracks, self.min_samples, self.max_samples
        )
        for samples in tracks:
            samples.flags.writeable = False
        return _BatchRun(tuple(tracks), GAnalysisModule(), RGainModule())

    def n_steps(self, state: _BatchRun) -> int:
        return len(state.tracks)

    def step(self, state: _BatchRun, index: int, harness: Harness) -> None:
        samples = state.tracks[index]
        result = state.analysis.step(harness, index, samples)
        normalised = state.gain.step(harness, index, samples, result)
        state.digests.append(zlib.crc32(normalised.pcm16.tobytes()))

    def end(self, state: _BatchRun) -> object:
        return tuple(state.digests)

    def is_failure(self, golden_output: object, run_output: object) -> bool:
        return golden_output != run_output
