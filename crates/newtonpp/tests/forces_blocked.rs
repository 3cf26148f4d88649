//! The blocked force kernel against the scalar reference: every
//! acceleration must agree bit for bit, on full blocks, on the scalar
//! tail and on the `r2 == 0` guard.

use newtonpp::forces::{
    accelerations_blocked, accelerations_blocked_portable, accelerations_host, Gravity, LANES,
};
use newtonpp::ic::{uniform_random, UniformIc};
use newtonpp::BodySet;

type Kernel = fn([&[f64]; 3], [&[f64]; 4], &Gravity, [&mut [f64]; 3]);

fn bodies(n: usize, seed: u64) -> BodySet {
    uniform_random(&UniformIc { n, seed, ..UniformIc::default() })
}

/// The first `n` bodies of `set`.
fn prefix(set: &BodySet, n: usize) -> BodySet {
    let mut out = BodySet::new();
    for i in 0..n {
        out.push([set.x[i], set.y[i], set.z[i]], [set.vx[i], set.vy[i], set.vz[i]], set.m[i]);
    }
    out
}

fn run(kernel: Kernel, targets: &BodySet, sources: &BodySet, grav: &Gravity) -> Vec<[f64; 3]> {
    let n = targets.len();
    let (mut ax, mut ay, mut az) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    kernel(
        [&targets.x, &targets.y, &targets.z],
        [&sources.x, &sources.y, &sources.z, &sources.m],
        grav,
        [&mut ax, &mut ay, &mut az],
    );
    (0..n).map(|i| [ax[i], ay[i], az[i]]).collect()
}

fn assert_same_bits(got: &[[f64; 3]], want: &[[f64; 3]], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.map(f64::to_bits), w.map(f64::to_bits), "{what}: target {i}: {g:?} vs {w:?}");
    }
}

#[test]
fn blocked_kernel_matches_the_scalar_oracle_bitwise() {
    let grav = Gravity::default();
    // Fewer targets than one block, exact blocks, ragged tails, and the
    // 1024 x 2048 shape of a two-rank run.
    let shapes = [(1, 1), (3, 5), (LANES - 1, 11), (LANES, LANES), (LANES + 1, 40), (37, 64)];
    for (nt, ns) in shapes.into_iter().chain([(1024, 2048), (2 * LANES + 3, 2048)]) {
        let sources = bodies(ns, 11 + ns as u64);
        let targets = prefix(&sources, nt);
        let want = accelerations_host(&targets, &sources, &grav);
        let got = run(accelerations_blocked, &targets, &sources, &grav);
        assert_same_bits(&got, &want, &format!("{nt} x {ns}"));
    }
}

#[test]
fn coincident_bodies_without_softening_take_the_zero_select() {
    // eps = 0 and every target appears among the sources, so each
    // target meets r2 == 0 once; 2 * LANES + 5 targets put coincident
    // pairs in full blocks and in the tail.
    let grav = Gravity { g: 1.0, eps: 0.0 };
    let sources = bodies(3 * LANES, 5);
    let targets = prefix(&sources, 2 * LANES + 5);
    let want = accelerations_host(&targets, &sources, &grav);
    let got = run(accelerations_blocked, &targets, &sources, &grav);
    assert!(got.iter().flatten().all(|a| a.is_finite()), "a coincident pair leaked inf/NaN");
    assert_same_bits(&got, &want, "eps = 0");
}

#[test]
fn dispatched_and_portable_paths_give_equal_bits() {
    for (nt, ns, eps) in [(LANES + 3, 300, 1e-3), (129, 129, 0.0), (1024, 2048, 1e-3)] {
        let grav = Gravity { g: 1.0, eps };
        let sources = bodies(ns, 3);
        let targets = prefix(&sources, nt);
        let dispatched = run(accelerations_blocked, &targets, &sources, &grav);
        let portable = run(accelerations_blocked_portable, &targets, &sources, &grav);
        assert_same_bits(&dispatched, &portable, &format!("{nt} x {ns}, eps {eps}"));
    }
}
