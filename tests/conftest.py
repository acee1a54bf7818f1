"""Shared fixtures."""

import pytest

from rodfield import geometry


@pytest.fixture
def refined_graded_mesh():
    """Build the graded mesh of a spec with the rule made finer ``times``
    steps of two: twice the cap panels and one more halving at each
    junction, and facade panels from half the first length up to half the
    longest, per step."""
    def build(spec, times):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "GRADED_CAP_PANELS", geometry.GRADED_CAP_PANELS << times)
            patch.setattr(geometry, "GRADED_HALVINGS", geometry.GRADED_HALVINGS + times)
            patch.setattr(geometry, "GRADED_FIRST", geometry.GRADED_FIRST / 2**times)
            patch.setattr(geometry, "GRADED_LONGEST", geometry.GRADED_LONGEST / 2**times)
            return geometry.BoundaryMesh(spec, graded=True)
    return build
