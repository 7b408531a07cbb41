"""The package namespace: eager bound names, lazily loaded planner and numeric ones."""

import importlib
import inspect

import pytest

import chebbound


def test_every_public_name_resolves():
    for name in chebbound.__all__:
        getattr(chebbound, name)


def test_lazy_names_come_from_their_module():
    assert set(chebbound._LAZY) <= set(chebbound.__all__)
    for name, module in chebbound._LAZY.items():
        source = importlib.import_module(f"chebbound.{module}")
        assert getattr(chebbound, name) is getattr(source, name)


def test_all_is_the_eager_names_then_the_lazy_ones_each_once():
    assert len(set(chebbound.__all__)) == len(chebbound.__all__)
    eager = {
        name
        for name, value in vars(chebbound).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    } - set(chebbound._LAZY)
    assert set(chebbound.__all__) == {"__version__"} | eager | set(chebbound._LAZY)
    assert chebbound.__all__[-len(chebbound._LAZY):] == list(chebbound._LAZY)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from chebbound import *", namespace)
    assert set(chebbound.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(chebbound.__all__) <= set(dir(chebbound))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chebbound.no_such_name


def test_old_import_paths_give_the_same_objects():
    from chebbound import bounds, ellipse, interpolation, verification

    assert ellipse.EllipseRadii is chebbound.EllipseRadii
    assert interpolation.NodeBudget is chebbound.NodeBudget
    assert verification.PUBLISHED_BOUNDS is bounds.PUBLISHED_BOUNDS
    assert verification.crossover_scan is bounds.crossover_scan is chebbound.crossover_scan
    assert verification.ScanRecord is bounds.ScanRecord is chebbound.ScanRecord
    assert verification.scan_to_csv is bounds.scan_to_csv
