"""Product catalog generators for the five product benchmarks.

Each generator synthesizes clean product entities in the style of one of the
paper's benchmarks (Section 4.1 / Table 3):

* ``walmart_amazon_catalog`` — general retail electronics, 5 attributes.
* ``amazon_google_catalog`` — software products, 3 attributes.
* ``abt_buy_catalog`` — electronics with a long free-text description.
* ``wdc_cameras_catalog`` / ``wdc_shoes_catalog`` — title-only product offers.

Entities within the same *family* (brand + model family) differ only in model
number, capacity, or qualifier tokens, which makes cross-family blocking easy
but within-family discrimination hard — the property that drives the paper's
observation that match pairs concentrate in specific latent-space regions
while hard non-matches surround them.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import EntityProfile
from repro.datasets.vocabularies import (
    CAMERA_BRANDS,
    CAMERA_FAMILIES,
    CAMERA_QUALIFIERS,
    DESCRIPTION_FRAGMENTS,
    RETAIL_BRANDS,
    RETAIL_NOUNS,
    SHOE_BRANDS,
    SHOE_FAMILIES,
    SHOE_QUALIFIERS,
    SOFTWARE_BRANDS,
    SOFTWARE_NOUNS,
)


def _pick(rng: np.random.Generator, options: tuple[str, ...]) -> str:
    """Uniformly pick one element of ``options``."""
    return options[int(rng.integers(0, len(options)))]


def _model_number(rng: np.random.Generator) -> str:
    """A short alphanumeric model designator, e.g. ``sx740`` or ``a6400``."""
    letters = "abcdefghjkmnpqrstuvwxz"
    prefix = letters[int(rng.integers(0, len(letters)))]
    digits = int(rng.integers(10, 9999))
    return f"{prefix}{digits}"


def _price(rng: np.random.Generator, low: float, high: float) -> str:
    """A price string drawn uniformly from ``[low, high]``."""
    return f"{rng.uniform(low, high):.2f}"


def walmart_amazon_catalog(num_entities: int, rng: np.random.Generator) -> list[EntityProfile]:
    """Retail electronics entities with title/category/brand/modelno/price."""
    entities: list[EntityProfile] = []
    for index in range(num_entities):
        brand = _pick(rng, RETAIL_BRANDS)
        noun = _pick(rng, RETAIL_NOUNS)
        model = _model_number(rng)
        size = int(rng.integers(7, 70))
        title = f"{brand} {model} {size} inch {noun}"
        category = noun.split()[-1]
        values = {
            "title": title,
            "category": category,
            "brand": brand,
            "modelno": model,
            "price": _price(rng, 15, 900),
        }
        entities.append(EntityProfile(
            entity_id=f"wa_e{index}",
            values=values,
            family=f"{brand}|{noun}",
        ))
    return entities


def amazon_google_catalog(num_entities: int, rng: np.random.Generator) -> list[EntityProfile]:
    """Software product entities with title/manufacturer/price (Amazon-Google)."""
    entities: list[EntityProfile] = []
    for index in range(num_entities):
        brand = _pick(rng, SOFTWARE_BRANDS)
        noun = _pick(rng, SOFTWARE_NOUNS)
        version = int(rng.integers(1, 13))
        platform = _pick(rng, ("windows", "mac", "windows mac", "pc"))
        title = f"{brand} {noun} {version}.0 {platform}"
        values = {
            "title": title,
            "manufacturer": brand,
            "price": _price(rng, 9, 500),
        }
        entities.append(EntityProfile(
            entity_id=f"ag_e{index}",
            values=values,
            family=f"{brand}|{noun}",
        ))
    return entities


def abt_buy_catalog(num_entities: int, rng: np.random.Generator) -> list[EntityProfile]:
    """Electronics entities with a long textual description (ABT-Buy style)."""
    entities: list[EntityProfile] = []
    for index in range(num_entities):
        brand = _pick(rng, RETAIL_BRANDS)
        noun = _pick(rng, RETAIL_NOUNS)
        model = _model_number(rng)
        name = f"{brand} {noun} {model}"
        fragment_count = int(rng.integers(2, 5))
        fragments = [
            DESCRIPTION_FRAGMENTS[int(rng.integers(0, len(DESCRIPTION_FRAGMENTS)))]
            for _ in range(fragment_count)
        ]
        description = f"{name} {' '.join(fragments)}"
        values = {
            "name": name,
            "description": description,
            "price": _price(rng, 25, 1500),
        }
        entities.append(EntityProfile(
            entity_id=f"ab_e{index}",
            values=values,
            family=f"{brand}|{noun}",
        ))
    return entities


def wdc_cameras_catalog(num_entities: int, rng: np.random.Generator) -> list[EntityProfile]:
    """Camera offers described only by a title (WDC Cameras style)."""
    entities: list[EntityProfile] = []
    for index in range(num_entities):
        brand = _pick(rng, CAMERA_BRANDS)
        family = _pick(rng, CAMERA_FAMILIES)
        model = _model_number(rng)
        qualifier_count = int(rng.integers(1, 4))
        qualifiers = " ".join(
            CAMERA_QUALIFIERS[int(rng.integers(0, len(CAMERA_QUALIFIERS)))]
            for _ in range(qualifier_count)
        )
        title = f"{brand} {family} {model} {qualifiers}"
        entities.append(EntityProfile(
            entity_id=f"cam_e{index}",
            values={"title": title},
            family=f"{brand}|{family}",
        ))
    return entities


def wdc_shoes_catalog(num_entities: int, rng: np.random.Generator) -> list[EntityProfile]:
    """Shoe offers described only by a title (WDC Shoes style)."""
    entities: list[EntityProfile] = []
    for index in range(num_entities):
        brand = _pick(rng, SHOE_BRANDS)
        family = _pick(rng, SHOE_FAMILIES)
        version = int(rng.integers(1, 40))
        qualifier_count = int(rng.integers(1, 4))
        qualifiers = " ".join(
            SHOE_QUALIFIERS[int(rng.integers(0, len(SHOE_QUALIFIERS)))]
            for _ in range(qualifier_count)
        )
        title = f"{brand} {family} {version} {qualifiers}"
        entities.append(EntityProfile(
            entity_id=f"shoe_e{index}",
            values={"title": title},
            family=f"{brand}|{family}",
        ))
    return entities
