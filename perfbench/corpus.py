"""Seeded synthetic corpora for the benchmark workloads.

This generator belongs to the benchmark, not to geomix: a later change to
``geomix.data.generate_synthetic`` must not change what a workload runs on.

Users live around real US city centres grouped into eight fixed regions, so
the geography is the same for every seed and only the users and their text
vary with it.  Each region owns planted tokens (its gold dialect terms); each
city may own a few more.
The rest of a user's text is drawn from one Zipf noise vocabulary that does
not depend on location, so the vocabulary size is set by the noise draw while
the location signal comes only from the planted tokens.  The noise follows
Zipf's law for word frequencies in natural text, with exponent 1.

Splits keep the train:dev:test ratio of the paper's GEOTEXT corpus (5685,
1895 and 1895 users, 3:1:1), scaled down so a round trip fits the run.
"""

from dataclasses import dataclass

import numpy as np

# (region name, [(lat, lon) of its cities]); regions are >= 500 km apart, so a
# point is within 161 km of at most one region's cities
REGIONS = (
    ("northeast", [(40.71, -74.01), (42.36, -71.06), (39.95, -75.17)]),
    ("midwest", [(41.88, -87.63), (42.33, -83.05), (43.04, -87.91)]),
    ("texas", [(32.78, -96.80), (29.76, -95.37), (30.27, -97.74)]),
    ("florida", [(25.76, -80.19), (27.95, -82.46), (28.54, -81.38)]),
    ("southeast", [(33.75, -84.39), (33.52, -86.80)]),
    ("california", [(34.05, -118.24), (37.77, -122.42), (32.72, -117.16)]),
    ("northwest", [(47.61, -122.33), (45.52, -122.68)]),
    ("mountain", [(39.74, -104.99), (40.76, -111.89)]),
)
# lat_min, lat_max, lon_min, lon_max covering every city
US_BBOX = (24.0, 49.0, -125.0, -70.0)
ZIPF_S = 1.0


def geotext_split(n_train, test=True):
    """(train, dev, test) users in GEOTEXT's 3:1:1 ratio; no test split if not ``test``."""
    return (n_train, n_train // 3, n_train // 3 if test else 0)


@dataclass(frozen=True)
class CorpusShape:
    region_terms: int  # planted gold terms per region
    city_terms: int  # planted terms per city
    users: tuple  # (train, dev, test)
    queries: int  # test users also written to queries.tsv for predict --input
    tokens_per_user: int
    planted_per_user: int  # planted tokens in a regional user's text
    regional_fraction: float  # share of users whose text carries planted tokens
    noise_vocab: int  # sets the vocabulary size V
    city_stddev: float  # degrees


def _write_users(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for uid, lat, lon, text in rows:
            f.write(f"{uid}\t{lat:.6f}\t{lon:.6f}\t{text}\n")


def generate(shape, seed, out_dir):
    """Write train/dev/test/queries TSVs and regions.tsv into ``out_dir``.

    Returns a dict with the file ``paths``, the gold ``region_terms`` per
    region and the texts of the query users (``query_texts``).
    """
    rng = np.random.default_rng(seed)
    cities = [cs for _, cs in REGIONS]
    region_terms = [[f"reg{r}t{i}" for i in range(shape.region_terms)] for r in range(len(REGIONS))]
    city_terms = [[[f"reg{r}c{c}t{i}" for i in range(shape.city_terms)] for c in range(len(cs))]
                  for r, cs in enumerate(cities)]
    noise = [f"w{i}" for i in range(shape.noise_vocab)]
    zipf = 1.0 / np.arange(1, shape.noise_vocab + 1) ** ZIPF_S
    zipf /= zipf.sum()

    n_users = sum(shape.users)
    region_of = rng.integers(len(REGIONS), size=n_users)
    regional = rng.random(n_users) < shape.regional_fraction
    noise_draw = rng.choice(shape.noise_vocab, size=(n_users, shape.tokens_per_user), p=zipf)
    offsets = shape.city_stddev * rng.standard_normal((n_users, 2))
    rows = []
    for u in range(n_users):
        r = int(region_of[u])
        c = int(rng.integers(len(cities[r])))
        lat = float(np.clip(cities[r][c][0] + offsets[u, 0], -90.0, 90.0))
        lon = float(np.clip(cities[r][c][1] + offsets[u, 1], -180.0, 180.0))
        toks = [noise[i] for i in noise_draw[u]]
        if regional[u]:
            pool = region_terms[r] + city_terms[r][c]
            picks = rng.integers(len(pool), size=shape.planted_per_user)
            toks[:shape.planted_per_user] = [pool[i] for i in picks]
        rows.append((f"u{u}-r{r}", lat, lon, " ".join(toks)))

    n_train, n_dev, _ = shape.users
    paths = {name: f"{out_dir}/{name}.tsv" for name in ("train", "dev", "test", "queries", "regions")}
    _write_users(paths["train"], rows[:n_train])
    _write_users(paths["dev"], rows[n_train:n_train + n_dev])
    test = rows[n_train + n_dev:]
    _write_users(paths["test"], test)
    _write_users(paths["queries"], test[:shape.queries])
    with open(paths["regions"], "w", encoding="utf-8") as f:
        for (name, cs), terms in zip(REGIONS, region_terms):
            pts = ";".join(f"{lat},{lon}" for lat, lon in cs)
            f.write(f"{name}\t{pts}\t{','.join(terms)}\n")
    return {"paths": paths, "region_terms": region_terms,
            "query_texts": [text for _, _, _, text in test[:shape.queries]]}
