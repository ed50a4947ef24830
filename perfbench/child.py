"""One workload call in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

``import slabatten`` comes first so that the clock read right after it, on
the system-wide monotonic clock, lets run.py measure interpreter start
plus package import.  The call is then timed on its own, optionally under
the span tracer, and the result (wall time, user and system CPU time,
minor page faults, peak RSS, exit code, captured report, spans, sweep
values) is written as JSON.  The process exits with the program's exit
code.
"""

import sys
import time

import slabatten

T_IMPORT = time.monotonic()

import slabatten.cli  # noqa: E402

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402

import spans  # noqa: E402


def analytic_sweep(spec):
    """Closed form and both quadrature routes at every depth of every kernel."""
    from slabatten import (
        AveragedLaw, CorrelationKernel, ExponentConvention, MediumSpec,
        StochasticMedium,
    )

    m = spec["medium"]
    medium = MediumSpec(sigma_a=m["sigma_a"], alpha=m["alpha"], i0=m["i0"])
    out = []
    for kappa, zeta in spec["kernels"]:
        kernel = CorrelationKernel(amplitude=1.0, correlation_length=zeta, exponent=kappa)
        sm = StochasticMedium(medium, kernel)
        row = {"kappa": kappa, "zeta": zeta, "ordered": [], "oracle": []}
        if kappa == 2:
            laws = {c.value: AveragedLaw(medium, kernel, c) for c in ExponentConvention}
            row.update({name: [] for name in laws})
        for z in spec["depths"]:
            if kappa == 2:
                for name, law in laws.items():
                    row[name].append(float(slabatten.averaged_intensity(law, z)))
            row["ordered"].append(
                slabatten.cumulant_series_exponent(kernel, medium.alpha, medium.sigma_a, z)
            )
            row["oracle"].append(slabatten.lognormal_oracle(sm, z))
        out.append(row)
    return out


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = spans.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    result = {"t_import": T_IMPORT, "src": slabatten.__file__}
    report = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        if spec["kind"] == "cli":
            with contextlib.redirect_stdout(report):
                code = slabatten.cli.main(spec["argv"])
        else:
            result["sweep"] = analytic_sweep(spec)
            code = 0
        result["wall_s"] = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
    result["user_s"] = usage.ru_utime - usage0.ru_utime
    result["sys_s"] = usage.ru_stime - usage0.ru_stime
    result["minflt"] = usage.ru_minflt - usage0.ru_minflt
    result["exit"] = code
    result["stdout"] = report.getvalue()
    result["warnings"] = [w.category.__name__ for w in caught]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
