"""One-pair forms of the package's block kernels, for tests of a single pair."""

from depthrisk.levelset import _center_powers, _radial_volumes, _stack


def radial_volume(a, b):
    """The radial symmetric-difference volume of the lower sets of the
    LevelSetSpecs a and b about b's center: the k = 1 case of the block
    kernel ``_radial_volumes``."""
    b_sets = _stack(b)
    return float(_radial_volumes(_stack(a), b_sets, _center_powers(b_sets))[0])
