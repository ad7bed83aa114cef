"""Brute-force test oracles that share no code path with the package.

enumerate_vertices / check_containment_bruteforce decide polytope
containment by vertex enumeration in small dimensions, against which the
Farkas multiplier blocks are checked; prune_whole_polytope is the
sequential redundancy test over the whole polytope, against which the
per-component prune_redundant is checked; check_cert is the envelope
check of a certificate against a known plant; every_row_margin solves
every robust row of the audit over the whole polytope, against which
robust_verify's skipped rows are checked.
"""

import itertools

import numpy as np

from quantstab import Polytope, max_linear_over_polytope
from quantstab.lp_core import DEFAULT_BACKEND

ABS_TOL = 1e-7
VERTEX_DEDUP_TOL = 1e-7
MAX_VERTEX_DIM = 6
ENVELOPE_SLACK = 1e-9


def _recession_unbounded(poly, tol=1e-9):
    """True when the recession cone {G y <= 0} contains a nonzero ray."""
    d = poly.dim
    box = np.column_stack([-np.ones(d), np.ones(d)])
    for j in range(d):
        for sgn in (1.0, -1.0):
            c = np.zeros(d)
            c[j] = -sgn
            status, x, obj = DEFAULT_BACKEND.solve(
                c, poly.G, np.zeros(poly.num_faces), None, None, box)
            if status == "optimal" and -obj > tol:
                return True
    return False


def enumerate_vertices(poly, tol=ABS_TOL):
    """All vertices of a bounded polytope in dimension at most 6.

    Brute force over d-subsets of faces: solve each square subsystem, keep
    solutions feasible for every face, and deduplicate.
    """
    d = poly.dim
    if d > MAX_VERTEX_DIM:
        raise ValueError(f"vertex enumeration limited to dimension {MAX_VERTEX_DIM}")
    if _recession_unbounded(poly):
        raise ValueError("polytope is unbounded")
    G, h = poly.G, poly.h
    verts = []
    for rows in itertools.combinations(range(poly.num_faces), d):
        Gsub = G[list(rows)]
        if np.linalg.matrix_rank(Gsub, tol=1e-10) < d:
            continue
        x = np.linalg.solve(Gsub, h[list(rows)])
        if np.all(G @ x <= h + tol):
            if not any(np.max(np.abs(x - w)) <= VERTEX_DEDUP_TOL for w in verts):
                verts.append(x)
    return verts


def check_containment_bruteforce(P1, P2, tol=ABS_TOL):
    """True when every vertex of bounded P1 satisfies P2's inequalities."""
    for x in enumerate_vertices(P1):
        if not np.all(P2.G @ x <= P2.h + tol):
            return False
    return True


def prune_whole_polytope(poly, tol=1e-8):
    """Indices of the faces a sequential support test keeps, each face
    tested against every retained face of the whole polytope (capped at
    h_r + 1 so the LP stays bounded), in the original order."""
    retained = list(range(poly.num_faces))
    for r in range(poly.num_faces):
        others = [i for i in retained if i != r]
        G_test = np.vstack([poly.G[others], poly.G[r][None, :]])
        h_test = np.concatenate([poly.h[others], [poly.h[r] + 1.0]])
        support = max_linear_over_polytope(poly.G[r],
                                           Polytope(G_test, h_test))
        if support <= poly.h[r] + tol:
            retained.remove(r)
    return retained


def check_cert(sys, cert, spec):
    """Envelope check of a certificate against a known plant.

    Verifies |A Y + B diag(beta) S| <= M elementwise at every sector vertex
    and sum_j M_ij <= v_i - eta rowwise.  When the certificate carries no M,
    the minimal envelope max_beta |A Y + B diag(beta) S| is used, which is a
    conservative test (row sums of entrywise maxima can exceed the true
    worst row sum).  Returns (ok, margin) with margin the least row-sum
    slack; envelope entries exceeding M count against the row sums.  A
    spec without the plant's m channels raises ValueError.
    """
    if spec.m != sys.m:
        raise ValueError(f"the plant has m = {sys.m} inputs, but the spec "
                         f"quantizes {spec.m}")
    v, S = cert.v, cert.S
    Y = np.diag(v)
    envelope = np.max([np.abs(sys.A @ Y + sys.B @ (beta[:, None] * S))
                       for beta in spec.beta_vertices()], axis=0)
    dominated = cert.M is None or bool(
        np.all(envelope <= cert.M + ENVELOPE_SLACK))
    eff = envelope if cert.M is None else np.maximum(cert.M, envelope)
    margin = float(np.min(v - cert.eta - eff.sum(axis=1)))
    return dominated and margin >= -ENVELOPE_SLACK, margin


def every_row_margin(poly, certificate, spec):
    """The margin v_i - eta - max over P of
    sum_j alpha_j (A_ij v_j + sum_k beta_k B_ik S_kj) of every robust row,
    each an LP over the whole polytope: {(i, alpha, beta): margin} with
    alpha and beta tuples, in the audit's order (alpha outer, then beta,
    then i), and -inf where the support is unbounded."""
    v, S, eta = certificate.v, certificate.S, certificate.eta
    n, m = v.size, S.shape[0]
    sectors = [(1.0 - d, 1.0 + d) for d in spec.delta]
    margins = {}
    for alpha in itertools.product((-1.0, 1.0), repeat=n):
        a = np.array(alpha)
        for beta in itertools.product(*sectors):
            for i in range(n):
                # d/dz of (A (a v) + B (beta S a))_i, z = [vec(A); vec(B)]
                dA, dB = np.zeros((n, n)), np.zeros((n, m))
                dA[i] = a * v
                dB[i] = np.array(beta) * (S @ a)
                c = np.concatenate([dA.ravel(order="F"), dB.ravel(order="F")])
                support = max_linear_over_polytope(c, poly)
                margins[(i, alpha, beta)] = v[i] - eta - support
    return margins
