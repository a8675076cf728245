import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest

from alcovewalks.affine import AffineWeylGroup, WordError
from alcovewalks.cartan import from_label
from alcovewalks.folding import enumerate_folded_paths
from alcovewalks.render import MAX_RADIUS, SceneSpec, render_arrangement

GOLDEN = Path(__file__).parent / "golden" / "a2_radius2.svg"


def element_classes(svg: str) -> Counter:
    root = ET.fromstring(svg)
    return Counter(el.get("class") for el in root.iter() if el.get("class"))


def example8_path():
    group = AffineWeylGroup(from_label("A2"))
    word = (2, 1, 0, 2, 0, 1, 0, 2, 0)
    target = group.from_word((2, 1, 0, 2, 1, 2, 0))
    (path,) = [p for p in enumerate_folded_paths(group, word) if p.endpoint == target]
    return path


def test_a2_radius2_element_counts():
    svg = render_arrangement(SceneSpec(datum=from_label("A2"), radius=2))
    counts = element_classes(svg)
    assert counts["wall"] == 15  # 3 positive roots x 5 translates
    assert counts["alcove"] == 1
    assert counts["sign"] == 30  # one +/- pair per wall


def test_a1_radius1_wall_marks():
    svg = render_arrangement(SceneSpec(datum=from_label("A1"), radius=1))
    counts = element_classes(svg)
    assert counts["wall"] == 3
    assert counts["alcove"] == 1


def test_radius_bound():
    assert SceneSpec(datum=from_label("G2"), radius=MAX_RADIUS).radius == MAX_RADIUS
    for radius in (0, MAX_RADIUS + 1):
        with pytest.raises(ValueError, match="outside"):
            SceneSpec(datum=from_label("G2"), radius=radius)


def test_counts_scale_with_radius():
    for radius in (1, 2, 3):
        svg = render_arrangement(SceneSpec(datum=from_label("A2"), radius=radius))
        counts = element_classes(svg)
        assert counts["wall"] == 3 * (2 * radius + 1)
        assert counts["sign"] == 2 * counts["wall"]


def test_folded_path_overlay_glyphs():
    path = example8_path()
    svg = render_arrangement(SceneSpec(datum=from_label("A2"), radius=2, overlays=(path,)))
    counts = element_classes(svg)
    assert counts["fold"] == 2
    assert counts["crossing"] == 7
    assert counts["start"] == 1


def test_plain_walk_overlay():
    svg = render_arrangement(SceneSpec(datum=from_label("A2"), radius=2, overlays=((2, 1, 0),)))
    counts = element_classes(svg)
    assert counts["crossing"] == 3
    assert counts["fold"] == 0


@pytest.mark.parametrize("letter", [3, -1])
def test_word_overlay_with_a_bad_letter_raises(letter):
    spec = SceneSpec(datum=from_label("A2"), radius=2, overlays=((2, letter, 0),))
    with pytest.raises(WordError, match=f"letter {letter} out of range 0..2"):
        render_arrangement(spec)


def test_output_is_deterministic():
    spec = SceneSpec(datum=from_label("A2"), radius=2, overlays=(example8_path(),))
    assert render_arrangement(spec) == render_arrangement(spec)


def test_golden_file_byte_equality():
    svg = render_arrangement(SceneSpec(datum=from_label("A2"), radius=2))
    assert svg == GOLDEN.read_text()


def test_wall_adjacency_matches_simple_reflection():
    # alcoves on the two sides of a rendered wall differ by one simple
    # reflection: the barycenter midpoint lies exactly on the wall
    group = AffineWeylGroup(from_label("A2"))
    for word in [(), (0,), (0, 1), (2, 1, 0)]:
        v = group.from_word(word)
        for j in range(3):
            beta = v.act(group.simple_affine_root(j))
            mid_a, _ = group.alcove_position(v)
            mid_b, _ = group.alcove_position(v * group.simple_reflection(j))
            mid = tuple((a + b) / 2 for a, b in zip(mid_a, mid_b))
            functional = group.root_functional(beta.finite)
            value = sum(f * x for f, x in zip(functional, mid))
            assert value == -beta.k


def test_rank_guard():
    with pytest.raises(ValueError):
        SceneSpec(datum=from_label("A3"), radius=2)
    with pytest.raises(ValueError):
        SceneSpec(datum=from_label("A2"), radius=0)
