import xml.etree.ElementTree as ET

import pytest

from spacepart.core import PartitionAssignment
from spacepart.kdtree import kd_partition
from spacepart.render import PALETTE, render_2d
from spacepart.vtree import build_vtree

from conftest import random_dataset


def test_single_partition_single_color(tmp_path):
    ds = random_dataset(0, 40, 2)
    svg = render_2d(ds, PartitionAssignment(1, {int(i): 0 for i in ds.ids}))
    fills = {line.split('fill="')[1].split('"')[0] for line in svg.splitlines() if "<circle" in line}
    assert fills == {PALETTE[0]}


def test_rejects_non_2d():
    ds = random_dataset(1, 10, 3)
    with pytest.raises(ValueError):
        render_2d(ds, PartitionAssignment(1, {int(i): 0 for i in ds.ids}))


def test_rejects_more_partitions_than_points():
    ds = random_dataset(1, 10, 2)
    with pytest.raises(ValueError, match="^assignment has 11 partitions, more than the 10 points$"):
        render_2d(ds, PartitionAssignment(11, {int(i): int(i) + 1 for i in ds.ids}))
    assert render_2d(ds, PartitionAssignment(10, {int(i): int(i) for i in ds.ids})).count("<circle") == 10


def test_deterministic_bytes(tmp_path):
    ds = random_dataset(2, 100, 2)
    tree = build_vtree(ds, 4, strategy="kmeanspp", seed=1)
    a = render_2d(ds, tree.leaf_assignment)
    b = render_2d(ds, tree.leaf_assignment)
    assert a == b
    out = tmp_path / "plot.svg"
    render_2d(ds, tree.leaf_assignment, out)
    assert out.read_text() == a


def test_empty_partition_keeps_legend_entry():
    ds = random_dataset(3, 30, 2)
    labels = {int(i): 0 for i in ds.ids}
    labels[int(ds.ids[0])] = 2  # partition 1 stays empty
    svg = render_2d(ds, PartitionAssignment(3, labels))
    assert "partition 1 (0 pts)" in svg
    assert svg.count("<circle") == 30


def test_affected_points_are_ringed():
    ds = random_dataset(4, 60, 2)
    tree = kd_partition(ds, 2, eps=10.0)
    assert tree.assignment.affected  # wide margin guarantees some
    svg = render_2d(ds, tree.assignment)
    ringed = [l for l in svg.splitlines() if "<circle" in l and "stroke=" in l]
    assert len(ringed) == len(tree.assignment.affected)


def test_svg_parses_and_declares_version():
    ds = random_dataset(5, 20, 2)
    tree = kd_partition(ds, 4)
    svg = render_2d(ds, tree.assignment)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
