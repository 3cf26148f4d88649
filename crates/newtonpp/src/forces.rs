//! Softened Newtonian gravity: the direct (all-pairs) force evaluation.
//!
//! [`accelerations_host`] is the scalar physics reference used by tests
//! and by [`crate::integrator::Leapfrog`]. The device kernel in
//! [`crate::Newton`] runs [`accelerations_blocked`], which computes the
//! same sums bit-identically: it processes [`LANES`] targets per block
//! (a scalar tail takes the `n % LANES` rest), and every target still
//! sums its sources in order with [`pair_accel`]'s expression. Only the
//! order of independent targets changes. IEEE `sqrt` and division are
//! correctly rounded and Rust never contracts `a * b + c` into an FMA,
//! so a vectorized lane rounds exactly as the scalar loop does. One
//! generic body is compiled twice, portably and with AVX2 enabled, and
//! the AVX2 copy is chosen at run time when the CPU has it.

use crate::body::BodySet;

/// Gravity parameters shared by the host and device force paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gravity {
    /// Gravitational constant.
    pub g: f64,
    /// Plummer softening length (avoids the 1/r² singularity).
    pub eps: f64,
}

impl Default for Gravity {
    fn default() -> Self {
        Gravity { g: 1.0, eps: 1e-3 }
    }
}

/// Acceleration on a body at `(xi, yi, zi)` due to one source body.
/// Self-interaction (identical positions) contributes nothing through
/// the softening as long as `eps > 0`; exact coincidence with `eps = 0`
/// is guarded to return zero.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the flat kernel signature; packing into arrays costs in the hot loop
pub fn pair_accel(
    xi: f64,
    yi: f64,
    zi: f64,
    xj: f64,
    yj: f64,
    zj: f64,
    mj: f64,
    grav: &Gravity,
) -> [f64; 3] {
    let dx = xj - xi;
    let dy = yj - yi;
    let dz = zj - zi;
    let r2 = dx * dx + dy * dy + dz * dz + grav.eps * grav.eps;
    if r2 == 0.0 {
        return [0.0; 3];
    }
    let inv_r = 1.0 / r2.sqrt();
    let f = grav.g * mj * inv_r * inv_r * inv_r;
    [f * dx, f * dy, f * dz]
}

/// Accelerations of `targets` due to every body in `sources` (host
/// reference implementation). A target that coincides with a source with
/// identical position contributes zero when softened — excluding true
/// self-interaction of shared bodies is therefore automatic.
pub fn accelerations_host(targets: &BodySet, sources: &BodySet, grav: &Gravity) -> Vec<[f64; 3]> {
    let mut acc = vec![[0.0; 3]; targets.len()];
    for (i, out) in acc.iter_mut().enumerate() {
        let (xi, yi, zi) = (targets.x[i], targets.y[i], targets.z[i]);
        let mut a = [0.0; 3];
        for j in 0..sources.len() {
            let da = pair_accel(
                xi,
                yi,
                zi,
                sources.x[j],
                sources.y[j],
                sources.z[j],
                sources.m[j],
                grav,
            );
            a[0] += da[0];
            a[1] += da[1];
            a[2] += da[2];
        }
        *out = a;
    }
    acc
}

/// Targets per block of [`accelerations_blocked`]: two AVX2 vectors of
/// four `f64` per coordinate.
pub const LANES: usize = 8;

/// Accelerations of the targets `[x, y, z]` due to every source
/// `[x, y, z, m]`, written to `out = [ax, ay, az]`. Bit-identical to
/// [`accelerations_host`] on the same bodies (see the module docs).
/// Runs the AVX2 copy of the kernel when the CPU supports it (std
/// detects the feature once and caches it), else the portable copy.
///
/// # Panics
/// When the target, source or output slices differ in length.
pub fn accelerations_blocked(
    targets: [&[f64]; 3],
    sources: [&[f64]; 4],
    grav: &Gravity,
    out: [&mut [f64]; 3],
) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `blocked_avx2` only requires the AVX2 target feature,
        // and the CPU was just reported to support it.
        return unsafe { blocked_avx2(targets, sources, grav, out) };
    }
    blocked(targets, sources, grav, out)
}

/// The portable copy of [`accelerations_blocked`], compiled for the
/// crate's baseline target features: the fallback on CPUs without AVX2.
pub fn accelerations_blocked_portable(
    targets: [&[f64]; 3],
    sources: [&[f64]; 4],
    grav: &Gravity,
    out: [&mut [f64]; 3],
) {
    blocked(targets, sources, grav, out)
}

/// The AVX2 copy of [`accelerations_blocked`].
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn blocked_avx2(targets: [&[f64]; 3], sources: [&[f64]; 4], grav: &Gravity, out: [&mut [f64]; 3]) {
    blocked(targets, sources, grav, out)
}

/// The generic body both copies inline: full blocks of [`LANES`]
/// targets, then a one-lane tail.
#[inline(always)]
fn blocked(targets: [&[f64]; 3], sources: [&[f64]; 4], grav: &Gravity, out: [&mut [f64]; 3]) {
    let [tx, ty, tz] = targets;
    let [ox, oy, oz] = out;
    let n = tx.len();
    assert!(
        [ty.len(), tz.len(), ox.len(), oy.len(), oz.len()].iter().all(|&l| l == n),
        "target and output slices differ in length"
    );
    assert!(sources.iter().all(|s| s.len() == sources[0].len()), "source slices differ in length");
    let full = n - n % LANES;
    for i in (0..full).step_by(LANES) {
        let a = block::<LANES>(
            tx[i..i + LANES].try_into().unwrap(),
            ty[i..i + LANES].try_into().unwrap(),
            tz[i..i + LANES].try_into().unwrap(),
            sources,
            grav,
        );
        ox[i..i + LANES].copy_from_slice(&a[0]);
        oy[i..i + LANES].copy_from_slice(&a[1]);
        oz[i..i + LANES].copy_from_slice(&a[2]);
    }
    for i in full..n {
        let [ax, ay, az] = block::<1>([tx[i]], [ty[i]], [tz[i]], sources, grav);
        (ox[i], oy[i], oz[i]) = (ax[0], ay[0], az[0]);
    }
}

/// Sums over all sources, in order, for `L` targets at once: lane `l`
/// accumulates exactly what [`pair_accel`] would give target `l`.
#[inline(always)]
fn block<const L: usize>(
    xi: [f64; L],
    yi: [f64; L],
    zi: [f64; L],
    sources: [&[f64]; 4],
    grav: &Gravity,
) -> [[f64; L]; 3] {
    let [sx, sy, sz, sm] = sources;
    let eps2 = grav.eps * grav.eps;
    let mut a = [[0.0; L]; 3];
    for (((&xj, &yj), &zj), &mj) in sx.iter().zip(sy).zip(sz).zip(sm) {
        let gm = grav.g * mj;
        for l in 0..L {
            let dx = xj - xi[l];
            let dy = yj - yi[l];
            let dz = zj - zi[l];
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let inv_r = 1.0 / r2.sqrt();
            let f = gm * inv_r * inv_r * inv_r;
            // `pair_accel`'s coincidence guard as a per-lane select: the
            // lane adds +0.0, as the scalar loop adds its `[0.0; 3]`.
            let coincident = r2 == 0.0;
            a[0][l] += if coincident { 0.0 } else { f * dx };
            a[1][l] += if coincident { 0.0 } else { f * dy };
            a[2][l] += if coincident { 0.0 } else { f * dz };
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bodies_attract_along_the_separation() {
        let grav = Gravity { g: 1.0, eps: 0.0 };
        let a = pair_accel(0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 8.0, &grav);
        // |a| = G m / r^2 = 8/4 = 2, pointing +x.
        assert!((a[0] - 2.0).abs() < 1e-12);
        assert_eq!(a[1], 0.0);
        assert_eq!(a[2], 0.0);
    }

    #[test]
    fn softening_caps_close_encounters() {
        let soft = Gravity { g: 1.0, eps: 0.1 };
        let near = pair_accel(0.0, 0.0, 0.0, 1e-8, 0.0, 0.0, 1.0, &soft);
        // With eps = 0.1 the acceleration is bounded by ~ G m d / eps^3.
        assert!(near[0].abs() < 1e-8 / (0.1f64.powi(3)) + 1e-6);
        assert!(near[0].is_finite());
    }

    #[test]
    fn coincident_bodies_with_zero_eps_do_not_nan() {
        let grav = Gravity { g: 1.0, eps: 0.0 };
        let a = pair_accel(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, &grav);
        assert_eq!(a, [0.0; 3]);
    }

    #[test]
    fn forces_are_antisymmetric() {
        let grav = Gravity { g: 1.0, eps: 0.01 };
        let mut bodies = BodySet::new();
        bodies.push([0.0, 0.0, 0.0], [0.0; 3], 3.0);
        bodies.push([1.0, 2.0, -1.0], [0.0; 3], 5.0);
        let acc = accelerations_host(&bodies, &bodies, &grav);
        // m0*a0 + m1*a1 = 0 (Newton's third law over the pair).
        for (k, (a0, a1)) in acc[0].iter().zip(&acc[1]).enumerate() {
            let net = 3.0 * a0 + 5.0 * a1;
            assert!(net.abs() < 1e-12, "component {k}: {net}");
        }
    }

    #[test]
    fn superposition_over_sources() {
        let grav = Gravity::default();
        let mut t = BodySet::new();
        t.push([0.0; 3], [0.0; 3], 1.0);
        let mut s1 = BodySet::new();
        s1.push([1.0, 0.0, 0.0], [0.0; 3], 2.0);
        let mut s2 = BodySet::new();
        s2.push([0.0, 1.0, 0.0], [0.0; 3], 4.0);
        let mut both = s1.clone();
        both.extend(&s2);
        let a1 = accelerations_host(&t, &s1, &grav)[0];
        let a2 = accelerations_host(&t, &s2, &grav)[0];
        let ab = accelerations_host(&t, &both, &grav)[0];
        for k in 0..3 {
            assert!((ab[k] - (a1[k] + a2[k])).abs() < 1e-12);
        }
    }
}
