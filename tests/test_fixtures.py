"""The checked-in fixture files: their bytes, and the examples they encode.

``fixtures/*.json`` is the one copy of the worked examples. The files are
pinned by sha256; a change to one must update its pin here on purpose.
"""

import hashlib
import json

from causalsumm import (
    canonical,
    contract,
    load_dag,
    load_summary,
    save_dag,
    save_summary,
    trivial_summary,
)

FIXTURE_SHA256 = {
    "g1.json": "e07ae3c837429fa5916fb3d2d7f10ddc5568517c56c177f307668a099df792cb",
    "g2.json": "e31672961d1cf1de0a84f8eabd5ae902107d10e10fbd3d4e0b87ece03db0ef8b",
    "g3.json": "e2e6b80d67ffa6be70944d46d40eda693299e5feffbaf7ec7a410a126519f486",
    "h1.json": "cce7958280a419cc604fb6b2fe202b75899ddf4d16119bee5d3e4be9979a3dd0",
    "h2.json": "b6b351bea3d2cd515b9d9dd2b39a377dcd1f3f3bbad33ae75852a63ee9df5fd9",
    "h3.json": "8c2f328bb1eecf0d9c408692215e33060474ad4eb38d5b28b853383d2cf8fab6",
    "h3_canonical.json": "a086c35a1d556f259fda03ba866eb415b33673e88cc9ebfc35dcc7441a0ae777",
    "h4.json": "74a207a24da6e3731ab8ad729f29ce89e63834151792b1250ac7aa91ecd423bd",
    "redshift.json": "87f46f6e93739bafff7be1e9e48e8b8b22209882424d1a7c3be3b9e51fd0ca0d",
    "redshift_extra_edges.json": "d02867045d63e0befd6c2a856ac2216d04c2cbb6952a6488d1fdeb7d69af6a3d",
    "redshift_missing_edge.json": "7fdf8747337df01717f9c00e72f7cb7ec27d591300c62812b90fc5d4a28b9aec",
}


def test_fixture_files_are_pinned(fixtures_dir):
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in fixtures_dir.glob("*.json")}
    assert found == FIXTURE_SHA256


def test_fixture_files_round_trip_byte_for_byte(fixtures_dir, tmp_path):
    for path in sorted(fixtures_dir.glob("*.json")):
        data = path.read_bytes()
        out = tmp_path / path.name
        if "clusters" in json.loads(data):
            save_summary(load_summary(path), out)
        else:
            save_dag(load_dag(path), out)
        assert out.read_bytes() == data, path.name


def test_summaries_are_contractions_of_g1(g1, h1, h2, h3, h4):
    assert h1 == contract(trivial_summary(g1), "B", "C")
    assert h2 == contract(trivial_summary(g1), "B", "D")
    assert h3 == contract(h1, "A", "BC")
    assert h4 == contract(h1, "D", "E")


def test_redshift_shapes(fixtures_dir, redshift, redshift_missing_edge):
    assert redshift.num_nodes == 12 and len(redshift.edges) == 23
    assert len(redshift_missing_edge.edges) == 22
    assert len(load_dag(fixtures_dir / "redshift_extra_edges.json").edges) == 28


def test_redshift_perturbations_share_nodes(fixtures_dir, redshift, redshift_missing_edge):
    extra = load_dag(fixtures_dir / "redshift_extra_edges.json")
    assert redshift_missing_edge.nodes == redshift.nodes
    assert extra.nodes == redshift.nodes
    assert redshift_missing_edge.edges < redshift.edges
    assert redshift.edges < extra.edges


def test_h3_canonical_fixture_is_the_canonical_dag(fixtures_dir, h3):
    assert load_dag(fixtures_dir / "h3_canonical.json") == canonical(h3)
