"""The four workloads: seeded op lists, the op each runs, and its checks.

An op is one user-level request.  A workload object holds one round: a
fixed, seeded list of ops.  `call` runs an op through the package (the
only timed part); `check` verifies its output against the enumeration
reference, closed forms or mathematical properties and raises
`CheckFailed`; `verify` and `post` run further checks once per run,
before and after the timed phase.  `cold_probe` times the first calls
of each layer on fresh code instances, for the traced run.

All inputs (rays, channels, spec texts) are made here from the seed, with
the benchmark's own random channel construction; the package only ever
receives the generated inputs.
"""

from __future__ import annotations

import math
import zlib
from fractions import Fraction
from time import perf_counter

import numpy as np

from reference import PauliReference

TOL_EPS = 1e-6  # the package's default threshold bisection tolerance
TOL_CONV = 1e-9  # default orbit convergence tolerance
K_MAX = 60  # default level cap
THRESHOLD_SLACK = 1e-12  # reference and package bisect identical probes
FIXED_POINT_TOL = 1e-9  # fixed_points_1d bisects to 1e-12
MAP_TOL = 1e-12  # float evaluation of the same polynomial map
ORACLE_TOL = 1e-10  # dense simulation against the algebraic map
CHANNEL_TOL = 1e-10  # trace preservation and Choi positivity

EXPECTED_DW = {"bitflip3": (1, 2), "five-qubit": (3, 4), "steane": (3, 4), "shor": (3, 2)}

PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


COLD_METRICS = (
    "stabilizer.parse_ms", "stabilizer.validate_ms", "stabilizer.derive_ms",
    "stabilizer.distance_ms", "codingmap.diagonal_build_ms", "codingmap.general_map_first_ms",
    "codingmap.c_constants_ms", "oracle.build_ms",
)


class CheckFailed(Exception):
    """An output of the package is wrong."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- inputs made by the benchmark --------------------------------------------


def stokes_of_kraus(kraus) -> np.ndarray:
    """S[s, t] = tr(P_s sum_e K_e (P_t / 2) K_e^dag)."""
    out = np.empty((4, 4))
    for t in range(4):
        image = sum(k @ PAULI[t] @ k.conj().T for k in kraus) / 2
        out[:, t] = [np.trace(PAULI[s] @ image).real for s in range(4)]
    out[0] = (1.0, 0.0, 0.0, 0.0)  # trace preservation holds exactly; drop rounding
    return out


def random_cptp_stokes(rng: np.random.Generator, rank: int = 4) -> np.ndarray:
    """Stokes matrix of a channel whose Kraus operators slice a random isometry."""
    g = rng.normal(size=(2 * rank, 2)) + 1j * rng.normal(size=(2 * rank, 2))
    q, _ = np.linalg.qr(g)
    return stokes_of_kraus([q[2 * e : 2 * e + 2] for e in range(rank)])


def pauli_direction(rng: np.random.Generator) -> tuple[float, float, float]:
    """A ray direction of physical Pauli noise: the channel at eps applies
    X, Y, Z with probabilities proportional to a random point of the simplex;
    scaled so that the largest component is 1."""
    qx, qy, qz = rng.dirichlet(np.ones(3))
    d = np.array([qy + qz, qx + qz, qx + qy])
    return tuple(float(v) for v in d / d.max())


def is_channel(m: np.ndarray) -> bool:
    """Trace-preserving with a positive semidefinite Choi matrix, computed here."""
    if not np.all(np.isfinite(m)) or np.max(np.abs(m[0] - (1, 0, 0, 0))) > CHANNEL_TOL:
        return False
    choi = 0.5 * sum(m[s, t] * np.kron(PAULI[t].T, PAULI[s]) for s in range(4) for t in range(4))
    return bool(np.linalg.eigvalsh(choi)[0] >= -CHANNEL_TOL)


def spec_text(code, perm=None, rng=None) -> str:
    """A code in the spec-file format, qubits permuted by `perm`; with `rng`
    the generator and recovery lines are also shuffled."""
    perm = range(code.n) if perm is None else perm

    def word(p) -> str:
        letters = p.letters
        prefix = str(p)[: len(str(p)) - len(letters)]
        return prefix + "".join(letters[q] for q in perm)

    gens = list(code.generators)
    recs = list(code.recovery)
    if rng is not None:
        gens = [gens[i] for i in rng.permutation(len(gens))]
        recs = [recs[i] for i in rng.permutation(len(recs))]
    lines = [f"n {code.n}"]
    lines += [f"generator {word(g)}" for g in gens]
    lines += [f"logicalX {word(code.logical_x)}", f"logicalZ {word(code.logical_z)}"]
    lines += [f"recovery {word(r)}" for r in recs]
    return "\n".join(lines) + "\n"


def mix(weights: dict[str, int]) -> list[str]:
    return [name for name, count in weights.items() for _ in range(count)]


# -- closed forms computed by the benchmark -----------------------------------


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def shor_z_polynomial() -> list:
    """Coefficients (ascending) of ((3z - z^3)/2)^3."""
    h = [Fraction(0), Fraction(3, 2), Fraction(0), Fraction(-1, 2)]
    return _poly_mul(_poly_mul(h, h), h)


def shor_dephasing_fixed_point() -> float:
    """Largest root below 1 of ((3z - z^3)/2)^3 = z."""
    coeffs = shor_z_polynomial()
    coeffs[1] -= 1
    roots = np.roots([float(c) for c in reversed(coeffs)])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real < 1 - 1e-6]
    return max(real)


def five_qubit_components() -> dict:
    """X = -x^5/4 + 5xy^2/4 + 5xz^2/4 - 5xy^2z^2/4; Y and Z are its cyclic images."""
    x_terms = {(5, 0, 0): Fraction(-1, 4), (1, 2, 0): Fraction(5, 4),
               (1, 0, 2): Fraction(5, 4), (1, 2, 2): Fraction(-5, 4)}
    y_terms = {(c, a, b): v for (a, b, c), v in x_terms.items()}
    z_terms = {(b, c, a): v for (a, b, c), v in x_terms.items()}
    return {"X": x_terms, "Y": y_terms, "Z": z_terms}


def terms(poly, sigma: str) -> dict:
    return {(m.a, m.b, m.c): Fraction(m.coeff) for m in poly.components[sigma] if m.coeff != 0}


# -- shared verification -------------------------------------------------------


class Workload:
    name = ""
    weights: dict[str, int] = {}
    kernel: tuple[str, ...] = ()  # calibration kernel parts (speed.py) like its dominant work

    def __init__(self, api, seed: int) -> None:
        self.api = api
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.codes = {name: api.get_code(name) for name in self.weights}
        self.refs: dict = {}
        self.ops: list = []
        self.build()
        self.first = {}  # the first op built for each code, before shuffling
        for op in self.ops:
            self.first.setdefault(op[0], op)
        self.ops = [self.ops[i] for i in self.rng.permutation(len(self.ops))]

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: enumerate the reference of every code."""
        self.refs = {name: PauliReference.of(code) for name, code in self.codes.items()}

    def warmup_ops(self) -> list:
        """The first op built for each code, the same kind of op on every
        seed (for `pauli-thresholds` the depolarizing ray), so that set-up
        does the same work on every seed."""
        return list(self.first.values())

    def verify(self) -> None:
        """Pauli inputs to general_map against the reference, for every code."""
        for name, code in self.codes.items():
            for _ in range(3):
                p = self.rng.dirichlet(np.ones(4))
                x, y, z = 1 - 2 * (p[2] + p[3]), 1 - 2 * (p[1] + p[3]), 1 - 2 * (p[1] + p[2])
                got = self.api.codingmap.general_map(
                    code, self.api.StokesChannel(np.diag([1.0, x, y, z]))
                ).matrix
                want = np.diag([1.0, *(float(v) for v in self.refs[name].diagonal(x, y, z))])
                require(np.max(np.abs(got - want)) <= MAP_TOL,
                        f"{name}: general_map of a Pauli channel differs from the reference")

    def post(self) -> None:
        pass

    def cold_probe(self) -> dict:
        """First calls of each layer on a fresh instance of every code (ms,
        summed over the workload's codes)."""
        api = self.api
        out = dict.fromkeys(COLD_METRICS, 0.0)
        channel = api.StokesChannel(np.eye(4))

        def timed(key, fn, *args):
            t0 = perf_counter()
            result = fn(*args)
            out[key] += (perf_counter() - t0) * 1e3
            return result

        def derive(code):
            code.group(), code.f_matrix(), [code.coefficient_table(s) for s in "IXYZ"]

        for builtin in self.codes.values():
            code = timed("stabilizer.parse_ms", api.stabilizer.parse_code_spec, spec_text(builtin))
            timed("stabilizer.validate_ms", code.validate)
            timed("stabilizer.derive_ms", derive, code)
            timed("stabilizer.distance_ms", code.distance_and_w)
            timed("codingmap.diagonal_build_ms", api.codingmap.diagonal_map, code)
            timed("codingmap.general_map_first_ms", api.codingmap.general_map, code, channel)
            timed("codingmap.c_constants_ms", api.codingmap.c_constants, code)
            if fits_dense(code):
                timed("oracle.build_ms", api.oracle.build_logical_basis, code)
        return out

    def diagonal_terms(self) -> int:
        return sum(
            len(self.api.codingmap.diagonal_map(code).components[s])
            for code in self.codes.values() for s in "XYZ"
        )


def fits_dense(code) -> bool:
    return code.n <= 7


# -- workloads -----------------------------------------------------------------


class PauliThresholds(Workload):
    """threshold + fixed_point_cross_check along depolarizing, dephasing and
    seeded Pauli rays, as `concatcode threshold` computes them."""

    name = "pauli-thresholds"
    weights = {"bitflip3": 1, "five-qubit": 1, "steane": 1, "shor": 1}
    kernel = ("interpreter",)
    CUSTOM_RAYS = 16  # per code and round

    def build(self) -> None:
        RaySpec = self.api.RaySpec
        for name in self.weights:
            rays = [RaySpec.depolarizing_ray(), RaySpec.dephasing_ray()]
            rays += [RaySpec.custom(pauli_direction(self.rng)) for _ in range(self.CUSTOM_RAYS)]
            self.ops += [(name, ray) for ray in rays]

    def call(self, op):
        code, dyn = self.codes[op[0]], self.api.dynamics
        return dyn.threshold(code, op[1]), dyn.fixed_point_cross_check(code, op[1])

    def prepare(self) -> None:
        super().prepare()
        self.expected = {}
        for name in self.weights:
            mine = [op for op in self.ops if op[0] == name]
            values = self.refs[name].thresholds(
                [op[1].direction for op in mine], TOL_EPS, TOL_CONV, K_MAX
            )
            self.expected.update({id(op): float(v) for op, v in zip(mine, values)})
        self.exact = {
            ("five-qubit", "depolarizing"): 1 - math.sqrt(2 / 3),
            ("shor", "dephasing"): 1 - shor_dephasing_fixed_point(),
        }

    def check(self, op, out) -> None:
        value, cross = out
        name, family = op[0], op[1].family
        ref = self.expected[id(op)]
        require(abs(value - ref) <= TOL_EPS + THRESHOLD_SLACK,
                f"{name} {op[1].direction}: threshold {value} but reference bisection {ref}")
        exact = self.exact.get((name, family))
        if exact is not None:
            require(abs(value - exact) <= TOL_EPS, f"{name} {family}: threshold {value} vs {exact}")
            require(cross is not None and abs(cross["threshold_from_fixed_point"] - exact)
                    <= FIXED_POINT_TOL, f"{name} {family}: fixed-point reduction missing or off")
        if cross is not None:
            require(abs(cross["threshold_from_fixed_point"] - ref) <= TOL_EPS + FIXED_POINT_TOL,
                    f"{name} {family}: fixed-point threshold disagrees with the reference")


class GeneralOrbits(Workload):
    """Orbits of seeded non-Pauli channels near the identity under the full
    4x4 map, as `concatcode orbit` runs them (default tolerance and cap)."""

    name = "general-orbits"
    # Shor makes up 20% so that p90 is the median Shor op and p50 lies
    # mid-cluster in steane.  bitflip3 is left out: see CHANGES.md.
    weights = {"five-qubit": 2, "steane": 6, "shor": 2}
    kernel = ("gather",)
    STRENGTH = (0.002, 0.005)  # every orbit converges in 3 levels
    SUBSAMPLE = 2  # ops per code with n <= 7 checked against the dense oracle

    def build(self) -> None:
        for name in mix(self.weights):
            eps = self.rng.uniform(*self.STRENGTH)
            matrix = (1 - eps) * np.eye(4) + eps * random_cptp_stokes(self.rng)
            self.ops.append((name, self.api.StokesChannel(matrix)))

    def call(self, op):
        return self.api.dynamics.iterate(self.codes[op[0]], op[1])

    def prepare(self) -> None:
        super().prepare()
        self.sampled = {}
        for name, code in self.codes.items():
            if fits_dense(code):
                self.sampled.update({id(op): None for op in
                                     [op for op in self.ops if op[0] == name][: self.SUBSAMPLE]})

    def check(self, op, record) -> None:
        levels = record.levels
        require(levels[0].channel.matrix.tobytes() == op[1].matrix.tobytes(), "level 0 is not the input")
        require(record.iterations_used == len(levels) - 1 <= K_MAX, "level count is inconsistent")
        require(record.converged == (levels[-1].distance < TOL_CONV), "converged flag is inconsistent")
        for level in levels:
            m = level.channel.matrix
            require(is_channel(m) and self.api.is_valid_channel(level.channel),
                    f"{op[0]}: level {level.k} is not a valid channel")
        if id(op) in self.sampled and len(levels) > 1:
            self.sampled[id(op)] = (op, levels[1].channel.matrix)

    def post(self) -> None:
        for entry in self.sampled.values():
            if entry is None:
                continue
            op, image = entry
            dense = self.api.oracle.extract_stokes(self.codes[op[0]], op[1]).matrix
            require(np.max(np.abs(dense - image)) <= ORACLE_TOL,
                    f"{op[0]}: general_map differs from extract_stokes")


class OracleXcheck(Workload):
    """One trial of `concatcode oracle check`: a seeded random CPTP channel
    through the dense simulation and through general_map."""

    name = "oracle-xcheck"
    # steane makes up 20% so that p90 is the median steane op; p50 lies
    # mid-cluster in five-qubit.
    weights = {"bitflip3": 2, "five-qubit": 6, "steane": 2}
    kernel = ("matmul",)

    def build(self) -> None:
        for name in mix(self.weights):
            self.ops.append((name, self.api.StokesChannel(random_cptp_stokes(self.rng))))

    def call(self, op):
        code = self.codes[op[0]]
        return (self.api.oracle.extract_stokes(code, op[1]).matrix,
                self.api.codingmap.general_map(code, op[1]).matrix)

    def check(self, op, out) -> None:
        dense, algebraic = out
        require(is_channel(algebraic), f"{op[0]}: general_map output is not a channel")
        require(np.max(np.abs(dense - algebraic)) <= ORACLE_TOL,
                f"{op[0]}: oracle gap {np.max(np.abs(dense - algebraic)):.3e}")


class CodeBuild(Workload):
    """Characterise a code from spec text on a fresh instance: parse, validate,
    diagonal_map, distance_and_w, c_constants and one general_map."""

    name = "code-build"
    # Shor makes up 20% so that p90 is the median Shor op; p50 lies
    # mid-cluster in steane.
    weights = {"bitflip3": 1, "five-qubit": 1, "steane": 6, "shor": 2}
    kernel = ("interpreter", "matmul")

    def build(self) -> None:
        for name in mix(self.weights):
            code = self.codes[name]
            text = spec_text(code, self.rng.permutation(code.n), self.rng)
            self.ops.append((name, text, self.api.StokesChannel(random_cptp_stokes(self.rng))))

    def call(self, op):
        api = self.api
        code = api.stabilizer.parse_code_spec(op[1])
        report = code.validate()
        poly = api.codingmap.diagonal_map(code)
        dw = code.distance_and_w()
        constants = api.codingmap.c_constants(code)
        image = api.codingmap.general_map(code, op[2]).matrix
        return report, poly, dw, constants, image

    def prepare(self) -> None:
        super().prepare()
        api = self.api
        self.poly = {n: api.diagonal_map(c) for n, c in self.codes.items()}
        self.constants = {n: api.c_constants(c) for n, c in self.codes.items()}
        self.image = {id(op): api.general_map(self.codes[op[0]], op[2]).matrix for op in self.ops}

    def check(self, op, out) -> None:
        report, poly, dw, constants, image = out
        name = op[0]
        require(report.passed, f"{name}: permuted code fails validation")
        require(poly.components == self.poly[name].components,
                f"{name}: permuted polynomials differ from the built-in's")
        require(constants == self.constants[name], f"{name}: permuted c_constants differ")
        require(tuple(dw) == EXPECTED_DW[name], f"{name}: (d, w) = {dw}")
        require(np.max(np.abs(image - self.image[id(op)])) <= MAP_TOL,
                f"{name}: permuted general_map differs from the built-in's")

    def verify(self) -> None:
        super().verify()
        for name, poly in self.poly.items():
            ref = self.refs[name]
            for x, y, z in self.rng.uniform(-1, 1, size=(16, 3)):
                got = poly.apply(self.api.DiagonalChannel(x, y, z)).as_tuple()
                want = ref.diagonal(x, y, z)
                require(max(abs(g - float(w)) for g, w in zip(got, want)) <= MAP_TOL,
                        f"{name}: diagonal map differs from the reference")
            require(tuple(self.codes[name].distance_and_w()) == EXPECTED_DW[name],
                    f"{name}: (d, w)")
        if "five-qubit" in self.poly:
            for sigma, want in five_qubit_components().items():
                require(terms(self.poly["five-qubit"], sigma) == want,
                        f"five-qubit {sigma} polynomial differs from the closed form")
        if "shor" in self.poly:
            want = {(0, 0, c): v for c, v in enumerate(shor_z_polynomial()) if v != 0}
            require(terms(self.poly["shor"], "Z") == want,
                    "shor Z polynomial differs from ((3z - z^3)/2)^3")


WORKLOADS = {w.name: w for w in (PauliThresholds, GeneralOrbits, OracleXcheck, CodeBuild)}
