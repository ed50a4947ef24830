"""The drift-ODE check of the closed form, shared by the test modules."""

from slabatten import averaged_intensity, theta


def ode_residual(law, z: float, h_fd: float) -> float:
    """Relative residual of the closed form in its drift ODE.

    The averaged law satisfies
    ``I'(z) = sigma_a * (gain * alpha^2 * sigma_a * theta(z) - 1) * I(z)``
    with the gain of the active convention.  The derivative is taken by
    central differences, so the residual decays as h_fd^2 while h_fd
    stays above the floating-point floor, 1e-12 * z; a step outside
    [1e-12 * z, z] or not > 0 raises ValueError.
    """
    if not 0 < h_fd <= z or h_fd < 1e-12 * z:
        raise ValueError(
            f"need z >= h_fd >= 1e-12 z and h_fd > 0, got z = {z}, h_fd = {h_fd}"
        )
    m = law.medium
    mid = averaged_intensity(law, z)
    derivative = (
        averaged_intensity(law, z + h_fd) - averaged_intensity(law, z - h_fd)
    ) / (2.0 * h_fd)
    drift = m.sigma_a * (
        law.convention.gain * m.alpha**2 * m.sigma_a * theta(law.kernel, z) - 1.0
    )
    return abs(derivative - drift * mid) / mid
