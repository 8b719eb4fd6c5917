"""Corpus, seeded request generators and oracle checks of the benchmark.

Every request is drawn from a fixed, finite pool of gallery configurations
whose reference miss counts are stored in reference.json (made by
`run.py --make-reference` from the simple LRU oracle). A run's seed picks
which pool entries are drawn and in what order, never the pool itself, so
every request any seed can produce has a stored answer.

Cost stratification: the k-th request takes program perm[k % 5] and the
entry at quantile frac(u0 + k * GOLDEN) of that program's cost-sorted pool.
Any prefix of that sequence covers the cost range evenly, so the mean and
median cost of a run barely depend on the seed or on how many requests fit
in the measured seconds.
"""

import functools
import hashlib
import json
import math
import os
import random
import re
from itertools import permutations

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus")
REFERENCE = os.path.join(HERE, "reference.json")

GOLDEN = (math.sqrt(5) - 1) / 2
SILVER = math.sqrt(2) - 1
BRONZE = math.sqrt(3) - 1

# Problem-size symbols and tile symbol -> the bound it divides.
PROGRAMS = {
    "matmul": (["NI", "NJ", "NK"], {}),
    "matmul_tiled": (["NI", "NJ", "NK"], {"Ti": "NI", "Tj": "NJ", "Tk": "NK"}),
    "two_index_fused": (["NI", "NJ", "NM", "NN"], {}),
    "two_index_unfused": (["NI", "NJ", "NM", "NN"], {}),
    "two_index_tiled": (["NI", "NJ", "NM", "NN"],
                        {"Ti": "NI", "Tj": "NJ", "Tm": "NM", "Tn": "NN"}),
}
NAMES = list(PROGRAMS)
ADVISE_PROGRAMS = ["matmul", "two_index_fused", "two_index_unfused"]
ADVISE_TILES = [4, 8, 16, 32, 64]

# Scaled-down (1/4) Table 2/3 configurations, rectangular tiles included.
TABLE_CONFIGS = [
    ("matmul_tiled", {"NI": 64, "NJ": 64, "NK": 64, "Ti": 8, "Tj": 16, "Tk": 8}),
    ("matmul_tiled", {"NI": 64, "NJ": 64, "NK": 64, "Ti": 16, "Tj": 16, "Tk": 16}),
    ("matmul_tiled", {"NI": 64, "NJ": 64, "NK": 64, "Ti": 8, "Tj": 16, "Tk": 32}),
    ("two_index_tiled", {"NI": 64, "NJ": 64, "NM": 64, "NN": 64,
                         "Ti": 32, "Tj": 16, "Tm": 16, "Tn": 32}),
    ("two_index_tiled", {"NI": 64, "NJ": 64, "NM": 64, "NN": 64,
                         "Ti": 16, "Tj": 32, "Tm": 32, "Tn": 16}),
    ("two_index_tiled", {"NI": 128, "NJ": 64, "NM": 64, "NN": 128,
                         "Ti": 32, "Tj": 16, "Tm": 16, "Tn": 32}),
]


def program_path(name):
    return os.path.join(CORPUS, name + ".sdlo")


@functools.lru_cache(maxsize=None)
def program_text(name):
    with open(program_path(name)) as f:
        return f.read()


def accesses(name, e):
    if name in ("matmul", "matmul_tiled"):
        return 4 * e["NI"] * e["NJ"] * e["NK"]
    if name == "two_index_fused":
        return e["NI"] * e["NN"] * (1 + 4 * e["NJ"] + 4 * e["NM"])
    body = 4 * e["NI"] * e["NN"] * (e["NJ"] + e["NM"])
    if name == "two_index_tiled":
        return body + e["NM"] * e["NN"] + e["NI"] * e["NN"]
    return body


def env_str(name, e):
    bounds, tiles = PROGRAMS[name]
    return " ".join(f"{k}={e[k]}" for k in bounds + list(tiles))


def config_key(name, e, line=1):
    return f"{name}|{env_str(name, e)}|L{line}"


def make_env(name, rng, target, quantum):
    """Bounds near `target` accesses with a seeded aspect ratio; each bound a
    multiple of `quantum`, tiles drawn from its divisors (rectangular)."""
    bounds, tiles = PROGRAMS[name]
    if tiles:
        quantum = max(quantum, 4)
    base = (target / 4) ** (1.0 / 3.0)
    shape = [rng.uniform(0.7, 1.4) for _ in bounds]
    norm = math.prod(shape) ** (1.0 / len(shape))
    e = {b: max(quantum, quantum * round(base * s / norm / quantum))
         for b, s in zip(bounds, shape)}
    if len(bounds) == 4:
        # Four bounds share the volume of three: NI*NN*(NJ+NM).
        e["NJ"] = max(quantum, quantum * round(e["NJ"] / 2 / quantum))
        e["NM"] = max(quantum, quantum * round(e["NM"] / 2 / quantum))
    for t, b in tiles.items():
        choices = [d for d in (2, 4, 8, 16, 32) if e[b] % d == 0 and d < e[b]]
        e[t] = rng.choice(choices)
    return e


def build_pool(names, lo, hi, per_program, quantum, pool_seed, extra=()):
    """Per program, `per_program` distinct configs with accesses spread
    log-uniformly over [lo, hi], sorted by accesses (the cost order)."""
    rng = random.Random(pool_seed)
    pools = {}
    for name in names:
        lo_n, hi_n = (lo[name], hi[name]) if isinstance(lo, dict) else (lo, hi)
        seen, out = set(), []
        for e in [dict(c) for n, c in extra if n == name]:
            seen.add(env_str(name, e))
            out.append(e)
        tries = 0
        while len(out) < per_program and tries < 100 * per_program:
            tries += 1
            q = (len(out) + rng.random()) / per_program
            e = make_env(name, rng, lo_n * (hi_n / lo_n) ** q, quantum)
            s = env_str(name, e)
            if s in seen or not (0.5 * lo_n <= accesses(name, e) <= 1.5 * hi_n):
                continue
            seen.add(s)
            out.append(e)
        pools[name] = sorted(out, key=lambda e: (accesses(name, e), env_str(name, e)))
    return pools


# Pools. Warm-up pools use their own pool seed; pools() removes any entry that
# collides with the timed pool, so warm-up keys never recur in a timed loop.
# The curve-mt pool feeds only the `--threads 2` part of the traced run.
POOLS = {
    "curve": dict(lo=400_000, hi=2_400_000, per_program=80, quantum=4,
                  pool_seed=11, extra=TABLE_CONFIGS[:1] + TABLE_CONFIGS[3:4]),
    "curve-mt": dict(lo=5_000_000, hi=25_000_000, per_program=24, quantum=8,
                     pool_seed=12, extra=TABLE_CONFIGS[1:3] + TABLE_CONFIGS[4:6]),
    # Model cost per access differs by program; bounds keep each request
    # between roughly 50 and 250 ms.
    "predict": dict(lo={"matmul": 100_000, "matmul_tiled": 50_000,
                        "two_index_fused": 80_000, "two_index_unfused": 100_000,
                        "two_index_tiled": 50_000},
                    hi={"matmul": 380_000, "matmul_tiled": 180_000,
                        "two_index_fused": 320_000, "two_index_unfused": 400_000,
                        "two_index_tiled": 200_000},
                    per_program=40, quantum=4, pool_seed=13),
    "advise": dict(lo={"matmul": 8_000, "two_index_fused": 20_000,
                       "two_index_unfused": 15_000},
                   hi={"matmul": 70_000, "two_index_fused": 120_000,
                       "two_index_unfused": 60_000},
                   per_program=16, quantum=4, pool_seed=14),
    "serve": dict(lo=500, hi=8_000, per_program=60, quantum=2, pool_seed=15),
}
WARMUP_POOLS = {
    "curve": dict(lo=1_500_000, hi=2_500_000, per_program=1, quantum=4, pool_seed=21),
    "predict": dict(lo=150_000, hi=250_000, per_program=2, quantum=4, pool_seed=23),
    "serve": dict(lo=500, hi=8_000, per_program=12, quantum=2, pool_seed=25),
}


def pools(kind, warmup=False):
    spec = dict((WARMUP_POOLS if warmup else POOLS)[kind])
    names = ADVISE_PROGRAMS if kind == "advise" else NAMES
    p = build_pool(names, **spec)
    if warmup:
        timed = build_pool(names, **POOLS[kind])
        for name in p:
            taken = {env_str(name, e) for e in timed[name]}
            p[name] = [e for e in p[name] if env_str(name, e) not in taken]
    return p


# ---------------------------------------------------------------------------
# Transformed programs for advise candidates, rebuilt from the program text
# (independently of the advisor's IR rewrites).
# ---------------------------------------------------------------------------

HEADER = re.compile(r"^(\s*)for (.*) \{\s*$")
LOOP = re.compile(r"(\w+)<([^>]*)>")


def bands(text):
    """[(line index, [(var, extent), ...])] for every `for` header."""
    out = []
    for i, line in enumerate(text.splitlines()):
        m = HEADER.match(line)
        if m:
            out.append((i, LOOP.findall(m.group(2))))
    return out


def interchanged(text, order):
    lines = text.splitlines()
    for i, loops in bands(text):
        ext = dict(loops)
        if sorted(ext) == sorted(order) and [v for v, _ in loops] != list(order):
            indent = HEADER.match(lines[i]).group(1)
            lines[i] = indent + "for " + ", ".join(
                f"{v}<{ext[v]}>" for v in order) + " {"
            return "\n".join(lines) + "\n"
    raise ValueError(f"no band reorders to {order}")


def tiled(text, order, tile):
    """Rectangular tiling of a single perfect nest: loop order `order` with
    vT<floor(EXT/tile)>, vI<tile>; subscripts v become vT+vI."""
    (i, loops), = bands(text)
    ext = dict(loops)
    split = {v[:-1] for v in order if v.endswith("T") and v[:-1] in ext}
    heads = []
    for v in order:
        if v.endswith("T") and v[:-1] in split:
            heads.append(f"{v}<floor(({ext[v[:-1]]})/{tile})>")
        elif v.endswith("I") and v[:-1] in split:
            heads.append(f"{v}<{tile}>")
        else:
            heads.append(f"{v}<{ext[v]}>")
    lines = text.splitlines()
    lines[i] = "for " + ", ".join(heads) + " {"

    def sub(m):
        parts = [p.strip() for p in m.group(1).split(",")]
        return "[" + ", ".join(f"{p}T+{p}I" if p in split else p for p in parts) + "]"

    for j in range(i + 1, len(lines)):
        lines[j] = re.sub(r"\[([^\]]*)\]", sub, lines[j])
    return "\n".join(lines) + "\n"


def advise_candidates(name, e):
    """Every candidate the advisor may score: (key suffix, program text)."""
    text = program_text(name)
    out = []
    for _, loops in bands(text):
        if len(loops) < 2:
            continue
        vars_ = [v for v, _ in loops]
        for perm in permutations(vars_):
            if list(perm) != vars_:
                out.append(("ic:" + ".".join(perm), interchanged(text, perm)))
    if name == "matmul":
        (_, loops), = bands(text)
        for t in ADVISE_TILES:
            split = [v for v, x in loops if e[x] > t and e[x] % t == 0]
            if split:
                order = [v + "T" for v in split] + [
                    v + "I" if v in split else v for v, _ in loops]
                out.append((f"tile:{t}", tiled(text, order, t)))
    return out


def candidate_suffix(advice):
    """The candidate's key suffix: `tile:T` or `ic:<loop order>`."""
    if advice["kind"] == "tile":
        return f"tile:{advice['tile']}"
    return "ic:" + ".".join(advice["order"])


def candidate_key(name, e, advice):
    return f"{name}|{env_str(name, e)}|{candidate_suffix(advice)}"


# ---------------------------------------------------------------------------
# Reference answers.
# ---------------------------------------------------------------------------

def oracle_jobs(scratch_dir):
    """(key, program file, line, env) for every stored answer. Transformed
    advise programs are written under `scratch_dir`."""
    jobs = {}

    def add(name, e, line, path=None, key=None):
        key = key or config_key(name, e, line)
        jobs[key] = (key, path or program_path(name), line, env_str(name, e))

    for kind, warms in (("curve", (False, True)), ("curve-mt", (False,))):
        for warm in warms:
            for name, pool in pools(kind, warm).items():
                for e in pool:
                    add(name, e, 1)
                    add(name, e, 4)
    for kind in ("predict", "serve"):
        for warm in (False, True):
            for name, pool in pools(kind, warm).items():
                for e in pool:
                    add(name, e, 1)
    os.makedirs(scratch_dir, exist_ok=True)
    for kind in ("advise",):
        for name, pool in pools(kind).items():
            for e in pool:
                add(name, e, 1)
                for suffix, text in advise_candidates(name, e):
                    digest = hashlib.sha1(text.encode()).hexdigest()[:12]
                    path = os.path.join(scratch_dir, f"{name}.{digest}.sdlo")
                    if not os.path.exists(path):
                        with open(path, "w") as f:
                            f.write(text)
                    add(name, e, 1, path, f"{name}|{env_str(name, e)}|{suffix}")
    return list(jobs.values())


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


class Checker:
    """Compares responses with the stored oracle counts, by value. A
    response that lacks a field, has one of the wrong type, or names a
    candidate without a stored answer is a mismatch."""

    def __init__(self, ref):
        self.ref = ref
        self.mismatches = []

    def _curve(self, key):
        r = self.ref.get(key)
        if r is None:
            raise KeyError(f"no reference answer for {key}")
        return dict(zip(r["caps"], r["misses"]))

    def ladder(self, name, e, line=1):
        return self.ref[config_key(name, e, line)]["caps"]

    def fail(self, what):
        self.mismatches.append(what)
        return False

    def sweep(self, req, doc):
        want = self._curve(config_key(req["prog"], req["env"], req.get("line", 1)))
        got = {row["capacity"]: row["misses"] for row in doc.get("rows", [])}
        if doc.get("completeness") != "complete" or got != want:
            return self.fail(f"sweep {req['prog']} {env_str(req['prog'], req['env'])} "
                             f"line {req.get('line', 1)}")
        return True

    def misses(self, req, doc):
        want = self._curve(config_key(req["prog"], req["env"]))[req["cap"]]
        if doc.get("predicted_misses") != want or doc.get("confidence") != "exact":
            return self.fail(f"misses {req['prog']} {env_str(req['prog'], req['env'])} "
                             f"cap {req['cap']}: got {doc.get('predicted_misses')} want {want}")
        return True

    def advise(self, req, doc):
        """The baseline, the exact set of candidates the advisor returned
        when the reference was made, and each candidate's miss count."""
        name, e, cap = req["prog"], req["env"], req["cap"]
        ref = self.ref[config_key(name, e)]
        base = dict(zip(ref["caps"], ref["misses"]))[cap]
        want_set = ref["advice_sets"][ref["advice_at"][ref["caps"].index(cap)]]
        advice = doc["advice"]
        ok = (doc.get("complete") is True and doc["baseline"]["misses"] == base
              and sorted(candidate_suffix(a) for a in advice) == want_set)
        for a in advice:
            want = self._curve(candidate_key(name, e, a))[cap]
            ok = ok and a.get("predicted_misses") == want
        if not ok:
            return self.fail(f"advise {name} {env_str(name, e)} cap {cap}")
        return True

    def analyze(self, req, doc):
        if not doc.get("rows") or not all("partition" in r for r in doc["rows"]):
            return self.fail(f"analyze {req['prog']}")
        return True

    def lint(self, req, doc):
        if doc.get("ok") is not True:
            return self.fail(f"lint {req['prog']}")
        return True

    def check(self, req, doc):
        try:
            return getattr(self, req["verb"])(req, doc)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as e:
            return self.fail(f"{req['verb']} {req['prog']}: malformed response ({e!r})")


# ---------------------------------------------------------------------------
# Seeded request streams.
# ---------------------------------------------------------------------------

def _stream(pool, names, rng):
    """Yields (k, name, env): program perm[k % n], cost quantile by Weyl."""
    perm = list(names)
    rng.shuffle(perm)
    u0 = rng.random()
    k = 0
    while True:
        name = perm[k % len(perm)]
        q = (u0 + k * GOLDEN) % 1.0
        entries = pool[name]
        yield k, name, entries[min(len(entries) - 1, int(q * len(entries)))]
        k += 1


def curve_requests(kind, seed, threads=1):
    rng = random.Random(f"{kind}:{seed}")
    line_phase = rng.randrange(4)
    for k, name, e in _stream(pools(kind), NAMES, rng):
        line = 4 if (k + line_phase) % 4 == 0 else 1
        yield {"verb": "sweep", "prog": name, "env": e, "line": line, "threads": threads}


def curve_warmup():
    return [{"verb": "sweep", "prog": name, "env": e, "line": 1}
            for name, pool in pools("curve", warmup=True).items() for e in pool]


def predict_requests(seed, checker):
    rng = random.Random(f"predict:{seed}")
    adv_phase = rng.randrange(4)
    misses = _stream(pools("predict"), NAMES, rng)
    advise = _stream(pools("advise"), ADVISE_PROGRAMS, rng)
    u1 = rng.random()
    k = 0
    while True:
        is_advise = (k + adv_phase) % 4 == 0
        _, name, e = next(advise if is_advise else misses)
        caps = checker.ladder(name, e)
        cap = caps[int(((u1 + k * SILVER) % 1.0) * len(caps))]
        yield {"verb": "advise" if is_advise else "misses", "prog": name, "env": e, "cap": cap}
        k += 1


def predict_warmup(checker):
    out = []
    for name, pool in pools("predict", warmup=True).items():
        for e in pool[:1]:  # the smaller entry keeps one set-up near 1 s
            caps = checker.ladder(name, e)
            out.append({"verb": "misses", "prog": name, "env": e, "cap": caps[len(caps) // 2]})
    return out


def cli_args(req, path):
    """The `sdlo` argument list for a CLI request."""
    args = [req["verb"], path] + env_str(req["prog"], req["env"]).split()
    if req["verb"] == "sweep":
        if req.get("line", 1) != 1:
            args += ["--line", str(req["line"])]
        if req.get("threads", 1) > 1:
            args += ["--threads", str(req["threads"])]
    else:
        args += ["--cap", str(req["cap"])]
    return args + ["--json"]


# serve-mix: verb shares of fresh requests (sum 100). lint and advise are
# the verbs whose pretty-printed payloads break the one-line framing.
# Cache hits and cheap simulated sweeps make up about 70% of requests, so the
# median lies well inside their narrow cost range. Near the knee where the
# 1-10 ms verbs begin, a few points of load-dependent shift doubled p50.
SERVE_MIX = [("sweep", 52), ("misses", 22), ("sweep-symbolic", 10), ("analyze", 6),
             ("batch", 6), ("lint", 3), ("advise", 1)]
SERVE_REPEAT = 0.45     # share of requests repeating a recent key
SERVE_RECENT = 4        # how many of a connection's last keys may repeat
SERVE_CONNECTIONS_MAX = 16


def renamed(text, variant):
    """The program with every array renamed: a new serve cache key for the
    same structure, work and miss counts."""
    if variant == 0:
        return text
    return re.sub(r"\b([A-Z]\w*)\[", rf"\1v{variant}[", text)


class ServeMix:
    """Seeded serve-mix request source for one connection."""

    def __init__(self, seed, conn, checker, warmup=False):
        self.rng = random.Random(f"serve:{seed}:{conn}")
        self.conn = conn
        self.checker = checker
        self.pool = pools("serve", warmup=warmup)
        self.flat = [(n, e) for n in NAMES for e in self.pool[n]]
        self.rng.shuffle(self.flat)
        # Simulated sweeps take the smallest quarter of each program's pool:
        # a narrow cost cluster, so the median barely moves with the mix.
        self.small = [(n, e) for n in NAMES for e in self.pool[n][:max(1, len(self.pool[n]) // 4)]]
        self.rng.shuffle(self.small)
        self.recent = []
        self.k = 0
        self.shares = []
        acc = 0
        for verb, share in SERVE_MIX:
            acc += share
            self.shares.append((acc, verb))
        self.u0 = self.rng.random()
        self.ur = self.rng.random()
        self.n = 0

    def _fresh_single(self, verb):
        pool = self.small if verb == "sweep" else self.flat
        name, e = pool[self.k % len(pool)]
        caps = self.checker.ladder(name, e)
        cap = caps[int(((self.u0 + self.k * SILVER) % 1.0) * len(caps))]
        self.k += 1
        # A fresh array-name variant per fresh request: the cache key is new
        # while the oracle answer (and the work) stay those of `name`.
        variant = self.conn + SERVE_CONNECTIONS_MAX * self.k
        if verb == "advise":
            adv = pools("advise")
            name = ADVISE_PROGRAMS[self.k % len(ADVISE_PROGRAMS)]
            e = adv[name][self.k % 4]  # the four smallest nests
            caps = self.checker.ladder(name, e)
            cap = caps[self.k % len(caps)]
        req = {"verb": verb, "prog": name, "env": e, "variant": variant}
        if verb == "sweep-symbolic":
            req.update(verb="sweep", engine="symbolic")
        if verb in ("misses", "advise"):
            req["cap"] = cap
        return req

    def next(self):
        self.n += 1
        if self.recent and (self.ur + self.n * BRONZE) % 1.0 < SERVE_REPEAT:
            return self.rng.choice(self.recent)
        x = ((self.u0 + self.k * GOLDEN) % 1.0) * 100
        verb = next(v for acc, v in self.shares if x < acc)
        if verb == "batch":
            req = {"verb": "batch", "requests": [
                self._fresh_single(v) for v in ("misses", "sweep", "sweep-symbolic")]}
        else:
            req = self._fresh_single(verb)
        self.recent = (self.recent + [req])[-SERVE_RECENT:]
        return req

    def warmup_set(self):
        """Fixed warm-up list: one fresh request of every single verb per
        warm-up config (keys disjoint from the timed pool)."""
        out = []
        for _ in range(len(self.flat)):
            for verb, _ in SERVE_MIX:
                if verb not in ("batch", "advise", "lint"):
                    out.append(self._fresh_single(verb))
        return out


def wire(req):
    """The serve protocol object of a request."""
    if req["verb"] == "batch":
        return {"verb": "batch", "requests": [wire(r) for r in req["requests"]]}
    text = program_text(req["prog"])
    if "variant" in req:
        text = renamed(text, req["variant"])
    out = {"verb": req["verb"], "program": text}
    if req["verb"] != "analyze":
        out["env"] = req["env"]
    for k in ("cap", "engine", "line"):
        if k in req:
            out[k] = req[k]
    return out
