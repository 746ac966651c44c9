"""The package's public surface: every layer's ``__all__``, re-exported."""

import desim
from desim import kernel, process, resources, rng

LAYERS = (kernel, process, resources, rng)


def test_all_is_the_layers_all_without_duplicates():
    layered = [name for layer in LAYERS for name in layer.__all__]
    assert sorted(desim.__all__) == sorted(layered)
    assert len(set(desim.__all__)) == len(desim.__all__)


def test_each_export_is_the_object_its_layer_defines():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(desim, name) is getattr(layer, name)
