"""Bundled reference squares and auxiliary pairs.

Every grid ships as a canonical CSV under ``fixtures_data/``, its frozen
SHA-256 digest beside its name in the registry. The registry also records,
for each fixture, the properties its source asserts (``claims``) and the
subset of those that do not actually hold of the printed numbers
(``claims_known_false``) — the verifier reports what the grids do, not
what the captions say.

Set ``FRANKLIN_SQUARES_FIXTURES`` to read grids from another directory:
its files are checked to parse and to hold the registered grid (the
entry's order, and for a pair, values in 0..n-1), but not against their
digests, which are enforced only in the bundled one (``verify_corpus``
checks them at any root).
"""

from __future__ import annotations

import os
from enum import Enum
from pathlib import Path

from .core import AuxPair, Square, _set, _Value
from .formats import parse_square_csv

ENV_VAR = "FRANKLIN_SQUARES_FIXTURES"

_BUNDLED_DIR = Path(__file__).resolve().parent / "fixtures_data"


class FixtureKind(Enum):
    SQUARE = "square"
    AUX_PAIR = "aux_pair"


class FixtureError(Exception):
    """Unknown fixture name or kind, or a fixture file that is missing,
    corrupted, does not parse or does not hold its registered grid."""


class _FrozenDict(dict):
    """A dict that cannot change after it is built, and so hashes: by its
    items, as == compares them. It reprs as a dict does, and a pickle or
    copy of it is another _FrozenDict."""

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)


class FixtureEntry(_Value):
    """Registry row: where a grid comes from and what is known about it.

    ``files`` maps each CSV name to the SHA-256 of its canonical bytes,
    frozen at transcription time: one file for a square, quotient then
    remainder for an auxiliary pair, which is all that ``kind`` reads. It
    is stored as a read-only dict, so a row's digests cannot change in
    place and the row hashes.
    ``claims`` use the classification vocabulary
    (natural/balanced/semi-magic/magic/pandiagonal/franklin/
    pandiagonal-franklin) plus ``orthogonal`` for pairs; pair-level claims
    other than balanced/orthogonal apply to both members at the reduced
    line sum n(n-1)/2. ``reconstructed_quotient_rows`` flags rows of the
    quotient member that the source elided and that were rebuilt from its
    periodic row pattern.
    """

    name: str
    order: int
    provenance: str
    files: dict[str, str]
    claims: tuple[str, ...]
    claims_known_false: tuple[str, ...] = ()
    notes: str = ""
    reconstructed_quotient_rows: tuple[int, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        _set(self, "files", _FrozenDict(self.files))

    @property
    def kind(self) -> FixtureKind:
        return FixtureKind.SQUARE if len(self.files) == 1 else FixtureKind.AUX_PAIR


REGISTRY: dict[str, FixtureEntry] = {e.name: e for e in (
    FixtureEntry(
        name="m6_franklin_1769",
        order=6,
        provenance="order-6 square from Franklin's 1769 letter to Collinson",
        files={"m6_franklin_1769.csv": "2f17383acc405d1ce79b5d28b23a2bc7e24dc5535d33ee89c57c0b6c4b17d857"},
        claims=("natural", "semi-magic"),
        notes=(
            "rows and columns reach 111 but the straight diagonals sum 84 "
            "and 138; only the corner-anchored bent diagonals (shifts 0 and "
            "3 downward/rightward, 2 and 5 upward/leftward) hit the target, "
            "and the odd line sum makes the half-line condition "
            "unsatisfiable"
        ),
    ),
    FixtureEntry(
        name="m6_euler",
        order=6,
        provenance="order-6 magic square from Euler's memoir on magic squares",
        files={"m6_euler.csv": "40b698ae8e8102f6eb3f851c094d5b8fa5d97b5939ae3b22c38047dbb02b9480"},
        claims=("natural", "magic"),
    ),
    FixtureEntry(
        name="m6_xian",
        order=6,
        provenance="order-6 magic square from a tablet unearthed at Xian, China",
        files={"m6_xian.csv": "120037f6f74bc493def4c93f186b5dc481cbfc9d0249748d4aa944c5c2026eae"},
        claims=("natural", "magic"),
    ),
    FixtureEntry(
        name="f8_1769",
        order=8,
        provenance="order-8 Franklin square from the 1769 letter",
        files={"f8_1769.csv": "3a02d7f4e623a28fdc4982f010515970db2f083c01d7b72eb656bbdd430f148b"},
        claims=("natural", "franklin"),
        notes=(
            "not magic: the straight diagonals sum 228 and 292 — the "
            "bent-diagonal condition replaces the straight one"
        ),
    ),
    FixtureEntry(
        name="f8_pandiagonal",
        order=8,
        provenance=(
            "order-8 pandiagonal magic square composed from "
            "column-alternating auxiliaries"
        ),
        files={"f8_pandiagonal.csv": "0266ffabb1d3bbd9ebe3e1a7b050ff2311c55e97f53111e62b6d911a65e65f67"},
        claims=("natural", "magic", "pandiagonal"),
        notes=(
            "meets the bent-diagonal and subsquare conditions at 260 but "
            "every half-line sums 122 or 138, so it is not a Franklin square"
        ),
    ),
    FixtureEntry(
        name="f8_third",
        order=8,
        provenance="a further order-8 square attributed to Franklin",
        files={"f8_third.csv": "54505ba7b6eb0f84cddc84d1e9757c7e7bc9035fd22cc493a3a5db24734ac55c"},
        claims=("natural", "franklin"),
        notes="not magic (diagonals 252 and 268) and not pandiagonal",
    ),
    FixtureEntry(
        name="f8_schindel_2574",
        order=8,
        provenance=(
            "order-8 pandiagonal Franklin square, entry 2574 in the "
            "Schindel-Rempel-Loly census"
        ),
        files={"f8_schindel_2574.csv": "84d766c67a81f7b88be71842e2e279eb40ac90e2eb0feec6983818f10e29dd24"},
        claims=("natural", "franklin", "pandiagonal", "pandiagonal-franklin"),
    ),
    FixtureEntry(
        name="f16_1769",
        order=16,
        provenance="order-16 Franklin square from the 1769 letter",
        files={"f16_1769.csv": "48f351b500b16e7cf401578115b623c5df0778a079cca2960aaba7d8ebda203b"},
        claims=("natural", "franklin"),
        notes="not magic (diagonals 1928 and 2184) and not pandiagonal",
    ),
    FixtureEntry(
        name="f16_pandiagonal",
        order=16,
        provenance=(
            "order-16 pandiagonal Franklin square composed from "
            "column-alternating auxiliaries"
        ),
        files={"f16_pandiagonal.csv": "f0a913c854676bda9452e8727a8706c2ea7ec8e68521375415708bec4494da2e"},
        claims=("natural", "franklin", "pandiagonal", "pandiagonal-franklin"),
    ),
    FixtureEntry(
        name="f16_new_pandiagonal",
        order=16,
        provenance=(
            "order-16 pandiagonal square composed by extending the order-8 "
            "column-alternating auxiliaries"
        ),
        files={"f16_new_pandiagonal.csv": "ffb71d7bde5b2df9b62f6f0463c36a60bc76dfb1a03f7226bbe285bc0d4a54fc"},
        claims=("natural", "pandiagonal", "franklin", "pandiagonal-franklin"),
        claims_known_false=("franklin", "pandiagonal-franklin"),
        notes=(
            "all 32 half-rows sum to 1020 or 1036 against the 1028 half "
            "target while every half-column sums 1028, so the square is "
            "pandiagonal and magic but not Franklin"
        ),
    ),
    FixtureEntry(
        name="f16_new_second",
        order=16,
        provenance=(
            "order-16 Franklin square composed from the same "
            "column-alternating auxiliary family"
        ),
        files={"f16_new_second.csv": "2c672e8e33e753d31d5dd03006bd9c0cb2e9e8823f8219618df6aa321de9923c"},
        claims=("natural", "franklin"),
        notes="not magic (diagonals 2040 and 2072) and not pandiagonal",
    ),
    FixtureEntry(
        name="f40",
        order=40,
        provenance="order-40 Franklin square printed in three column blocks",
        files={"f40.csv": "e5cd6c09573896248d12d1f71df0af0f56c1fb3e27e352d1e465c7df51da6d20"},
        claims=("natural", "franklin"),
        notes=(
            "not magic (diagonals 31220 and 32820); decomposes into a "
            "balanced pair meeting all three Franklin conditions at 780"
        ),
    ),
    FixtureEntry(
        name="m6_franklin_1769_aux",
        order=6,
        provenance="quotient/remainder decomposition of the 1769 order-6 square",
        files={
            "m6_franklin_1769_q.csv": "3814823659072cfc5eef786177133ef3f8f0da822813d6db662faa109e889ce3",
            "m6_franklin_1769_r.csv": "37f688ee58899cfadc92970f6046c4eae8980a0b40564d8891b6b4bd8d5e2e56",
        },
        claims=("balanced", "orthogonal"),
        notes=(
            "all row sums are 15; in each member only the second and fifth "
            "column sums miss (16 and 14 in the quotient, 9 and 21 in the "
            "remainder)"
        ),
    ),
    FixtureEntry(
        name="m6_euler_aux",
        order=6,
        provenance="decomposition of Euler's order-6 magic square",
        files={
            "m6_euler_q.csv": "6e6160f196b775a8b4f95fa0a34c3b219868b0945714cb01272ebb992e678b21",
            "m6_euler_r.csv": "933dc164083b9d086bf7d617669f0eebe308ec7f6f5a14709e7bedb1e76c5ea8",
        },
        claims=("balanced", "orthogonal", "magic"),
        claims_known_false=("magic",),
        notes=(
            "quotient row sums run [14,15,15,15,15,16] and remainder row "
            "sums [21,15,15,15,15,9]; the misses cancel under composition, "
            "so the composed square is magic even though the pair is not"
        ),
    ),
    FixtureEntry(
        name="m6_xian_aux",
        order=6,
        provenance="decomposition of the Xian tablet square",
        files={
            "m6_xian_q.csv": "523e0ee497c82dad8251b47d1ca4fefc298da50a5da15426e4d16b537f824997",
            "m6_xian_r.csv": "5daf1c1c79a44ce97b7a40236cae72a363790930164381d8246af44e067f4d84",
        },
        claims=("balanced", "orthogonal", "magic"),
        claims_known_false=("magic",),
        notes=(
            "quotient row sums run [15,14,14,16,16,15] and remainder row "
            "sums [15,21,21,9,9,15]; the misses cancel under composition"
        ),
    ),
    FixtureEntry(
        name="f8_1769_aux",
        order=8,
        provenance="decomposition of the 1769 order-8 square",
        files={
            "f8_1769_q.csv": "c6fc636185551532411a4f6e34c5ffa03422f14d17c805e1e9e6dd09d3867d9b",
            "f8_1769_r.csv": "a481e8506529ba66fa1ad93bdbd5893b5cdb6cf40531814dc09814e74bf5aa15",
        },
        claims=("balanced", "orthogonal", "franklin"),
    ),
    FixtureEntry(
        name="f8_pandiagonal_aux",
        order=8,
        provenance=(
            "column-alternating auxiliary pair for the order-8 pandiagonal "
            "magic square"
        ),
        files={
            "f8_pandiagonal_q.csv": "7efdf5d9a6bcb25d01fab5ad658b29ed54724b1a511fcd57e50586ecafc26ac1",
            "f8_pandiagonal_r.csv": "225723c6496f9542512207c3b0a65b30a3df401923946fa3643d3deecba6b4b4",
        },
        claims=("balanced", "orthogonal", "pandiagonal"),
        notes=(
            "each member meets the bent-diagonal and subsquare conditions "
            "at 28 but misses every half-line"
        ),
    ),
    FixtureEntry(
        name="f8_third_aux",
        order=8,
        provenance="decomposition of the further order-8 Franklin square",
        files={
            "f8_third_q.csv": "64f9135723face0183a33a7efc513555f2b7297695b7763e8c7854ddbb273972",
            "f8_third_r.csv": "f392956cd746a634d6f1695c7c628eb5fcd98f423d1d0c16116f191461b0f95f",
        },
        claims=("balanced", "orthogonal", "franklin"),
        notes=(
            "the quotient member is also pandiagonal at 28; the remainder "
            "member is not"
        ),
    ),
    FixtureEntry(
        name="f8_schindel_2574_aux",
        order=8,
        provenance="decomposition of census square 2574",
        files={
            "f8_schindel_2574_q.csv": "121747c1b482dfa0ba2714d3bcd93b833274ed8bc889828cf1d39c9b24c02f52",
            "f8_schindel_2574_r.csv": "dc4a4902930f35ca0f5f38e38f400b284acb8d7ce7c47c708a799769303ce3a5",
        },
        claims=(
            "balanced",
            "orthogonal",
            "franklin",
            "pandiagonal",
            "pandiagonal-franklin",
        ),
    ),
    FixtureEntry(
        name="f16_1769_aux",
        order=16,
        provenance=(
            "decomposition of the 1769 order-16 square; the source elides "
            "the quotient's interior rows, rebuilt here from its period-2 "
            "row pattern and confirmed against the decomposition"
        ),
        files={
            "f16_1769_q.csv": "28c22d289a115b69a072be2ab27b57560774252e1c49bef35bc4971c59a6e18f",
            "f16_1769_r.csv": "23630cdb5c25b1bf264bd22bdd4713c58006a947f0ffd481ba5cce5e938d38d6",
        },
        claims=("balanced", "orthogonal", "franklin"),
        notes=(
            "the remainder member is also pandiagonal at 120; the quotient "
            "member is not"
        ),
        reconstructed_quotient_rows=tuple(range(4, 14)),
    ),
    FixtureEntry(
        name="f16_pandiagonal_aux",
        order=16,
        provenance=(
            "column-alternating auxiliary pair for the order-16 pandiagonal "
            "Franklin square"
        ),
        files={
            "f16_pandiagonal_q.csv": "02a362088bdcc9976507e0654b2b07d0f4f4648583be199df3128fda53a479be",
            "f16_pandiagonal_r.csv": "adfc725931d18a418bd6099bbed4b0b46544b799fee04aa07444400a7b7517af",
        },
        claims=(
            "balanced",
            "orthogonal",
            "franklin",
            "pandiagonal",
            "pandiagonal-franklin",
        ),
    ),
    FixtureEntry(
        name="q24_r24",
        order=24,
        provenance=(
            "order-24 auxiliary pair whose composition is the order-24 "
            "Franklin square (the composed grid is not printed anywhere; "
            "it exists only through this pair)"
        ),
        files={
            "q24.csv": "05145806a2bf60a1e1b1d8358332f7ac1001b23d8188c3173529bca6798339d6",
            "r24.csv": "722c3157a496381bd76ddd7ba464c83bf90c0f7486911c1e3c18185bf8607db1",
        },
        claims=("balanced", "orthogonal", "franklin"),
        notes=(
            "the remainder member is also pandiagonal at 276; the quotient "
            "member is not"
        ),
    ),
)}


def data_dir() -> Path:
    """Active fixture directory (honors the environment override)."""
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return _BUNDLED_DIR


def names(kind: FixtureKind | None = None) -> list[str]:
    return [e.name for e in REGISTRY.values() if kind is None or e.kind is kind]


def entry(name: str) -> FixtureEntry:
    try:
        return REGISTRY[name]
    except KeyError:
        raise FixtureError(f"unknown fixture {name!r}") from None


def _read_grid(filename: str, order: int, root: Path, digest: str | None) -> Square:
    """The one reader of a fixture file: read it, check it against
    ``digest`` unless that is None, parse it and check its order. Every
    fault is a FixtureError."""
    path = root / filename
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FixtureError(f"cannot read fixture file {path}: {exc}") from None
    if digest is not None:
        # Imported here: loading hashlib (and OpenSSL) would lengthen every
        # CLI command's start-up, and only reads of bundled files check a
        # digest.
        import hashlib

        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            raise FixtureError(
                f"fixture file {filename} is corrupted "
                f"(sha256 {actual}, expected {digest})"
            )
    try:
        sq = parse_square_csv(data.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FixtureError(f"cannot parse fixture file {path}: {exc}") from None
    if sq.order != order:
        raise FixtureError(f"fixture file {path} has order {sq.order}, not {order}")
    return sq


def load(name: str) -> Square | AuxPair:
    """Read a fixture from data_dir(), checking digests only if bundled."""
    e = entry(name)
    root = data_dir()
    files = e.files if root == _BUNDLED_DIR else dict.fromkeys(e.files)
    grids = [_read_grid(f, e.order, root, digest) for f, digest in files.items()]
    if e.kind is FixtureKind.SQUARE:
        return grids[0]
    try:
        return AuxPair(*grids)
    except ValueError as exc:
        raise FixtureError(f"fixture {name!r} in {root}: {exc}") from None


def load_square(name: str) -> Square:
    if entry(name).kind is not FixtureKind.SQUARE:
        raise FixtureError(f"{name!r} is an auxiliary pair, not a square")
    return load(name)


def load_aux_pair(name: str) -> AuxPair:
    if entry(name).kind is not FixtureKind.AUX_PAIR:
        raise FixtureError(f"{name!r} is a square, not an auxiliary pair")
    return load(name)


def verify_corpus(root: Path | None = None) -> list[str]:
    """Audit a fixture directory against the frozen digests.

    Returns each registered file's first fault, in registry order and
    worded as load() words it; an intact corpus gives an empty list.
    """
    if root is None:
        root = data_dir()
    problems = []
    for e in REGISTRY.values():
        for filename, digest in e.files.items():
            try:
                _read_grid(filename, e.order, root, digest)
            except FixtureError as exc:
                problems.append(str(exc))
    return problems
