import hashlib
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from alcovewalks.affine import AffineWeylGroup, WordError
from alcovewalks.cartan import from_label
from alcovewalks.folding import enumerate_folded_paths
from alcovewalks.render import (
    MAX_RADIUS,
    _alcove_vertices,
    _barycenter,
    render_arrangement,
)

GOLDEN = Path(__file__).parent / "golden" / "a2_radius2.svg"


def group_of(label):
    return AffineWeylGroup(from_label(label))


def element_classes(svg: str) -> Counter:
    root = ET.fromstring(svg)
    return Counter(el.get("class") for el in root.iter() if el.get("class"))


def barycenter_of(group):
    """The exact barycenter of g A_0 for an element g of the group."""
    vertices = _alcove_vertices(group.datum)
    b0 = tuple(sum(c) / len(vertices) for c in zip(*vertices))
    return lambda g: _barycenter(group.datum.root_tables, b0, group.state(g))


def example8_path():
    group = AffineWeylGroup(from_label("A2"))
    word = (2, 1, 0, 2, 0, 1, 0, 2, 0)
    target = group.from_word((2, 1, 0, 2, 1, 2, 0))
    (path,) = [p for p in enumerate_folded_paths(group, word) if p.endpoint == target]
    return path


def test_a2_radius2_element_counts():
    svg = render_arrangement(group_of("A2"), radius=2)
    counts = element_classes(svg)
    assert counts["wall"] == 15  # 3 positive roots x 5 translates
    assert counts["alcove"] == 1
    assert counts["sign"] == 30  # one +/- pair per wall


def test_a1_radius1_wall_marks():
    svg = render_arrangement(group_of("A1"), radius=1)
    counts = element_classes(svg)
    assert counts["wall"] == 3
    assert counts["alcove"] == 1


def test_radius_bound():
    group = group_of("G2")
    assert element_classes(render_arrangement(group, radius=MAX_RADIUS))["wall"] > 0
    for radius in (0, MAX_RADIUS + 1):
        with pytest.raises(ValueError, match="outside"):
            render_arrangement(group, radius=radius)


def test_counts_scale_with_radius():
    for radius in (1, 2, 3):
        svg = render_arrangement(group_of("A2"), radius=radius)
        counts = element_classes(svg)
        assert counts["wall"] == 3 * (2 * radius + 1)
        assert counts["sign"] == 2 * counts["wall"]


def test_folded_path_overlay_glyphs():
    path = example8_path()
    svg = render_arrangement(group_of("A2"), radius=2, overlays=(path,))
    counts = element_classes(svg)
    assert counts["fold"] == 2
    assert counts["crossing"] == 7
    assert counts["start"] == 1


def test_plain_walk_overlay():
    svg = render_arrangement(group_of("A2"), radius=2, overlays=((2, 1, 0),))
    counts = element_classes(svg)
    assert counts["crossing"] == 3
    assert counts["fold"] == 0


@pytest.mark.parametrize("letter", [3, -1])
def test_word_overlay_with_a_bad_letter_raises(letter):
    with pytest.raises(WordError, match=f"letter {letter} out of range 0..2"):
        render_arrangement(group_of("A2"), radius=2, overlays=((2, letter, 0),))


def test_output_is_deterministic():
    group, overlays = group_of("A2"), (example8_path(),)
    assert render_arrangement(group, 2, overlays) == render_arrangement(group, 2, overlays)


def test_golden_file_byte_equality():
    svg = render_arrangement(group_of("A2"), radius=2)
    assert svg == GOLDEN.read_text()


# sha256 of the plain arrangement (no overlay) at radius 1, 7 and 100: rank 1's
# strip of ticks, and the clipper where walls meet the square's corners
PLAIN_RENDERS = {
    ("A1", 1): "06bc4ca06396224526fa1bea48191928e077dc189a1bf871e0ca55c156842948",
    ("A1", 7): "aad43b9ee22817c308a5eaffc3682727413850212fed4025a4116f05b465df9f",
    ("A1", 100): "2fdd437a3d26288d963e63bcbd6fda47a29f8d55fbd85a638977867282dffa2f",
    ("A2", 1): "5d5db24621329d2768dfbc99eefb4c0a76b1c396f6db3248489d75e93fdb7221",
    ("A2", 7): "da143a7cead5188a111d3d96173cc8c47f36c0d6ecb35983dc9954dfbbde82f8",
    ("A2", 100): "7aeca6027256f4d31af52e4df492a2fa1afc045f339cc915665fe959683b834b",
    ("B2", 1): "e6cd744c8a7df6e0d3f70c8ef107f374006365908c70d2a5de2cddf32605a264",
    ("B2", 7): "a584ef0eedb1d3966214fd489e48d57c566c6422598a5565ef0b40d3a7b2eb50",
    ("B2", 100): "47e4be6d334abefd3c4ac5c13310298c0dfb90deb06de0de91d59ca68803cd9f",
    ("C2", 1): "79e15e245579939750540d8acce84de38f9315e0295057de0bffbd31d55c7cb8",
    ("C2", 7): "7c29e168c0b8f2f2745fe70688b9fe719232cab09fd7ba8505d3c9b41aef6c00",
    ("C2", 100): "feac2a275ee9b0b96b88426330b604e2cf1033e484b8f7bbc2c64ac2a56f5c70",
    ("G2", 1): "1c8877b206193b01fdc3da899f260a29e8952af1e4bb807475ffa24d5b254c17",
    ("G2", 7): "4fd10bcfe6b33c4e7ef24413cc0b40426c99b98e565b2fc6914691572da46bc2",
    ("G2", 100): "c506558884fe19ca3209f5b652cf1b826e0bf7a7bfcbb55bde069a3d91c13b7a",
}


@pytest.mark.parametrize(
    "label, radius", PLAIN_RENDERS, ids=[f"{label}-{radius}" for label, radius in PLAIN_RENDERS]
)
def test_plain_arrangement_matches_recorded_digest(label, radius):
    svg = render_arrangement(group_of(label), radius=radius)
    assert hashlib.sha256(svg.encode()).hexdigest() == PLAIN_RENDERS[label, radius]


def test_wall_adjacency_matches_simple_reflection():
    # alcoves on the two sides of a rendered wall differ by one simple
    # reflection: the barycenter midpoint lies exactly on the wall
    group = AffineWeylGroup(from_label("A2"))
    tables = group.datum.root_tables
    barycenter = barycenter_of(group)
    for word in [(), (0,), (0, 1), (2, 1, 0)]:
        v = group.from_word(word)
        for j in range(3):
            beta = v.act(group.simple_affine_root(j))
            mid_a = barycenter(v)
            mid_b = barycenter(v * group.simple_reflection(j))
            mid = tuple((a + b) / 2 for a, b in zip(mid_a, mid_b))
            functional = tables.pairing[tables.index[beta.finite.coords]]
            value = sum(f * x for f, x in zip(functional, mid))
            assert value == -beta.k


def test_fundamental_alcove_a2():
    group = AffineWeylGroup(from_label("A2"))
    assert _alcove_vertices(group.datum) == (
        (Fraction(0), Fraction(0)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
    )
    assert barycenter_of(group)(group.identity()) == (Fraction(1, 3), Fraction(1, 3))


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_alcove_vertices_lie_on_their_walls(label):
    # vertex 0 is the origin, and every other vertex has theta = 1; in rank 2
    # vertex i also has alpha_i = 0
    datum = from_label(label)
    tables = datum.root_tables
    theta = tables.pairing[tables.index[datum.highest_root().coords]]
    origin, *others = _alcove_vertices(datum)
    assert origin == (0,) * datum.size
    for r, vertex in zip(tables.simple, others):
        assert sum(f * x for f, x in zip(theta, vertex)) == 1
        if datum.size == 2:
            assert sum(f * x for f, x in zip(tables.pairing[r], vertex)) == 0


def test_alcove_mirror():
    # s_1 A_0 is A_0 reflected in the wall alpha_1 = 0, which s_1 fixes
    # pointwise: its barycenter is b - alpha_1(b) h_1 for A_0's barycenter b
    group = AffineWeylGroup(from_label("A2"))
    barycenter = barycenter_of(group)
    base = barycenter(group.identity())
    mirrored = barycenter(group.simple_reflection(1))
    alpha_1 = 2 * base[0] - base[1]  # A2's alpha_1 on coroot coordinates; h_1 = (1, 0)
    assert mirrored == (base[0] - alpha_1, base[1]) == (0, Fraction(1, 3))


def test_alcove_translate():
    group = AffineWeylGroup(from_label("A1"))
    barycenter = barycenter_of(group)
    t1 = group.from_word((0, 1))  # t_{alpha_1 vee}
    assert barycenter(t1) == tuple(c + 1 for c in barycenter(group.identity()))


def test_rank_guard():
    with pytest.raises(ValueError, match="rank <= 2"):
        render_arrangement(group_of("A3"), radius=2)
    with pytest.raises(ValueError, match="radius 0"):
        render_arrangement(group_of("A2"), radius=0)


def test_render_arrangement_keeps_its_defaults():
    # radius 2 and no overlays unless given
    group = group_of("A2")
    assert render_arrangement(group) == render_arrangement(group, 2, ()) == GOLDEN.read_text()
