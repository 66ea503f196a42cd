"""Run the three bundled systems through the certifiers and read the verdicts.

The bundled corpus covers the three interesting outcomes:

* ex3: a complementarity system that is calm with a linear solvability rate,
  yet lacks the Aubin property: its [Jp Jx] is onto, so the exact criterion
  decides, and refutes with an explicit dual witness;
* ex4: a system whose first order test fails but whose second order
  (curvature) test certifies calmness with a square-root rate;
* ex5: a generalized equation whose Aubin property is certified through the
  direction-stratified adjoint inclusions even though the unstratified
  adjoint inclusion has nontrivial solutions.
"""

from polyvar import (
    QVector,
    check_aubin,
    check_calmness_constraint,
    check_directional_metric_regularity,
    check_foscms,
    check_second_order_directional_subregularity,
    check_soscms,
    graphical_derivative_S,
    parse_problem,
)
from polyvar.cli import bundled_problem_path

ex3 = parse_problem(bundled_problem_path("ex3.json"))
ex4 = parse_problem(bundled_problem_path("ex4.json"))
ex5 = parse_problem(bundled_problem_path("ex5.json"))

print("== ex3: complementarity with nonlinear bounds ==")
print("first order subregularity:", check_foscms(ex3).status)
calm = check_calmness_constraint(ex3, "first")
print("calmness:", calm.status, "| linear solvability:", calm.rate("linear_solvability"))
aubin = check_aubin(ex3, "corollary")
print("aubin:", aubin.status, "| refuted:", aubin.refuted)
for w in aubin.witnesses:
    print("  witness piece:", w.stratum)
    print("  dual ray:", w.vstar)

print("\n== ex4: curvature rescues calmness ==")
fos = check_foscms(ex4)
print("first order:", fos.status, "| witness:", fos.witnesses[0].vstar, "at u =", fos.witnesses[0].u)
print("second order:", check_soscms(ex4).status)
calm2 = check_calmness_constraint(ex4, "second")
print("calmness (second order):", calm2.status, "| sqrt-rate:", calm2.rate("hoelder_half_solvability"))
print(
    "directional subregularity along (1,0):",
    check_second_order_directional_subregularity(ex4, QVector([1, 0])).status,
)

print("\n== ex5: Aubin property via direction stratification ==")
cert = check_aubin(ex5, "corollary")
print("aubin:", cert.status)
phase_b = next(t for t in cert.trace if str(t["phase"]).startswith("B"))
for case in phase_b["cases"]:
    entries = case["adjoint_inclusions"]
    print(f"  {case['case']}: {len(entries)} adjoint inclusion(s), all trivial:",
          all(e["trivial"] for e in entries))
# the unstratified adjoint inclusion is the directional one at (0, 0)
zero = check_directional_metric_regularity(ex5, QVector.zero(2), QVector.zero(2))
gens = [list(map(str, g.entries)) for t in zero.trace for g in t["adjoint_cone"].rays + t["adjoint_cone"].lin]
print("  unstratified adjoint inclusion admits nontrivial duals:", gens)

print("\nlinearized solution slices of ex5:")
for q in ([-1], [1]):
    pieces = graphical_derivative_S(ex5, QVector(q))
    pts = [p.vertices_and_recession()[0] for p in pieces]
    print(f"  q={q}: {[[tuple(map(str, v.entries)) for v in vs] for vs in pts]}")
