"""The sweep slices the benchmark runs; README.md says why each was chosen.

Each workload is a `SweepConfig.desk_scale` grid (2 s scenes, all four
hearing aid algorithms, the nine nominal input SNRs) cut down to the cells
that load one layer of the pipeline.
"""

BASE_SEED = 20150842
# Reference surfaces are recorded for SEED_POOL consecutive sweep seeds, so
# every benchmark seed maps onto one whose surfaces can be checked.
SEED_POOL = 8

WORKLOADS = {
    # Localization: cue-lookup calibration, 31 reference and 31 test
    # localizations on one HOA cell; no STFT, shadow filter or beam pattern.
    "ple-center": dict(metrics=("ple", "spectral"), pose_offsets=(0.0,),
                       methods=("hoa",), speaker_counts=(24,)),
    # Off-centre listener: shadow filtering (scene stems for 21 long
    # sources, 4 algorithms x 9 input SNRs), beam patterns, off-grid HRIR
    # interpolation, and a receiver bank built once per metric for the same
    # array; localization never runs. Three cells, one per reproduction
    # method, so that cell_s averages over about 30 s of machine-speed noise
    # (see README.md, Noise and bounds).
    "mixed-lateral": dict(metrics=("beam", "snr", "spectral"),
                          pose_offsets=(0.5,),
                          methods=("nsp", "vbap", "hoa"),
                          speaker_counts=(12,)),
}


def config_seed(seed: int) -> int:
    """Sweep seed for a benchmark seed."""
    return BASE_SEED + seed % SEED_POOL


def sweep_config(sweep_config_cls, workload: str, seed: int):
    """The SweepConfig of one workload at one benchmark seed."""
    return sweep_config_cls.desk_scale(seed=config_seed(seed),
                                       **WORKLOADS[workload])
