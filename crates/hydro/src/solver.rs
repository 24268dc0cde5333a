//! Reference 2-D compressible-Euler solver (the Hydro mini-app's
//! numerical pipeline, reimplemented in Rust).
//!
//! Dimensionally-split MUSCL/Godunov scheme with a Rusanov
//! (local Lax–Friedrichs) interface flux:
//!
//! 1. reflective boundaries;
//! 2. `constoprim` — conservative → primitive;
//! 3. `eos` — ideal-gas pressure and sound speed;
//! 4. `slope` — minmod-limited slopes of the primitives;
//! 5. `trace` — per-cell left/right extrapolated states;
//! 6. `qleftright` — interface state gathering;
//! 7. `riemann` — interface wave speed (the approximate solver);
//! 8. `cmpflx` — Rusanov fluxes;
//! 9. `update` — conservative update;
//!
//! plus a global `courant` reduction for the time step.
//!
//! Every stage is written in f32 with exactly the operation order the
//! IR kernels use, so the simulated device runs are compared
//! element-wise against this solver.

/// Physical and numerical constants (Hydro's defaults).
pub const GAMMA: f32 = 1.4;
pub const SMALLR: f32 = 1e-10;
pub const SMALLP: f32 = 1e-10;
pub const CFL: f32 = 0.4;
/// Ghost cells per side.
pub const NG: usize = 2;

/// The full simulation state: conservative variables on an
/// `(nx + 4) × (ny + 4)` grid (2 ghost cells per side), row-major
/// with `x` contiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    pub nx: usize,
    pub ny: usize,
    pub dx: f32,
    pub rho: Vec<f32>,
    pub rhou: Vec<f32>,
    pub rhov: Vec<f32>,
    pub e: Vec<f32>,
}

impl State {
    pub fn nxt(&self) -> usize {
        self.nx + 2 * NG
    }

    pub fn nyt(&self) -> usize {
        self.ny + 2 * NG
    }

    pub fn idx(&self, i: usize, j: usize) -> usize {
        j * self.nxt() + i
    }

    /// Sod shock tube along x: high-pressure left half, low right.
    pub fn sod(nx: usize, ny: usize) -> State {
        let dx = 1.0 / nx as f32;
        let nxt = nx + 2 * NG;
        let nyt = ny + 2 * NG;
        let mut s = State {
            nx,
            ny,
            dx,
            rho: vec![0.0; nxt * nyt],
            rhou: vec![0.0; nxt * nyt],
            rhov: vec![0.0; nxt * nyt],
            e: vec![0.0; nxt * nyt],
        };
        for j in 0..nyt {
            for i in 0..nxt {
                let x = (i as f32 - NG as f32 + 0.5) * dx;
                let (rho, p) = if x < 0.5 { (1.0, 1.0) } else { (0.125, 0.1) };
                let k = j * nxt + i;
                s.rho[k] = rho;
                s.e[k] = p / (GAMMA - 1.0); // zero velocity
            }
        }
        s
    }

    /// Total mass over the interior (conserved by the scheme).
    pub fn total_mass(&self) -> f64 {
        let mut m = 0.0f64;
        for j in NG..NG + self.ny {
            for i in NG..NG + self.nx {
                m += self.rho[self.idx(i, j)] as f64;
            }
        }
        m
    }
}

/// Primitive variables and sound speed (scratch for one step).
pub struct Prim {
    pub rho: Vec<f32>,
    pub u: Vec<f32>,
    pub v: Vec<f32>,
    pub eint: Vec<f32>,
    pub p: Vec<f32>,
    pub c: Vec<f32>,
}

/// The Courant reduction: `max(|u| + c, |v| + c)` over the interior.
pub fn courant(s: &State) -> f32 {
    let mut cmax = 0.0f32;
    for j in NG..NG + s.ny {
        for i in NG..NG + s.nx {
            let k = s.idx(i, j);
            let rho = s.rho[k].max(SMALLR);
            let u = s.rhou[k] / rho;
            let v = s.rhov[k] / rho;
            let eint = s.e[k] / rho - 0.5 * (u * u + v * v);
            let p = ((GAMMA - 1.0) * rho * eint).max(SMALLP);
            let c = (GAMMA * p / rho).sqrt();
            cmax = cmax.max((u.abs() + c).max(v.abs() + c));
        }
    }
    cmax
}

/// CFL time step.
pub fn time_step(s: &State) -> f32 {
    CFL * s.dx / courant(s).max(1e-20)
}

/// Reflective boundary fill for one direction (0 = x, 1 = y).
pub fn make_boundary(s: &mut State, dir: usize) {
    let nxt = s.nxt();
    let nyt = s.nyt();
    if dir == 0 {
        for j in 0..nyt {
            for g in 0..NG {
                // Low side: ghost g mirrors interior NG + (NG-1-g).
                let src = s.idx(2 * NG - 1 - g, j);
                let dst = s.idx(g, j);
                mirror(s, dst, src, true);
                // High side.
                let src = s.idx(nxt - 2 * NG + g, j);
                let dst = s.idx(nxt - 1 - g, j);
                mirror(s, dst, src, true);
            }
        }
    } else {
        for i in 0..nxt {
            for g in 0..NG {
                let src = s.idx(i, 2 * NG - 1 - g);
                let dst = s.idx(i, g);
                mirror(s, dst, src, false);
                let src = s.idx(i, nyt - 2 * NG + g);
                let dst = s.idx(i, nyt - 1 - g);
                mirror(s, dst, src, false);
            }
        }
    }
}

fn mirror(s: &mut State, dst: usize, src: usize, flip_u: bool) {
    s.rho[dst] = s.rho[src];
    s.e[dst] = s.e[src];
    if flip_u {
        s.rhou[dst] = -s.rhou[src];
        s.rhov[dst] = s.rhov[src];
    } else {
        s.rhou[dst] = s.rhou[src];
        s.rhov[dst] = -s.rhov[src];
    }
}

/// `constoprim` + `eos` over the full (ghost-included) grid.
pub fn constoprim_eos(s: &State) -> Prim {
    let n = s.nxt() * s.nyt();
    let mut p = Prim {
        rho: vec![0.0; n],
        u: vec![0.0; n],
        v: vec![0.0; n],
        eint: vec![0.0; n],
        p: vec![0.0; n],
        c: vec![0.0; n],
    };
    for k in 0..n {
        let rho = s.rho[k].max(SMALLR);
        let u = s.rhou[k] / rho;
        let v = s.rhov[k] / rho;
        let eint = s.e[k] / rho - 0.5 * (u * u + v * v);
        p.rho[k] = rho;
        p.u[k] = u;
        p.v[k] = v;
        p.eint[k] = eint;
        p.p[k] = ((GAMMA - 1.0) * rho * eint).max(SMALLP);
        p.c[k] = (GAMMA * p.p[k] / rho).sqrt();
    }
    p
}

/// Minmod limiter, written exactly as the IR kernel's `select` chain.
pub fn minmod(a: f32, b: f32) -> f32 {
    if a * b > 0.0 {
        if a.abs() < b.abs() {
            a
        } else {
            b
        }
    } else {
        0.0
    }
}

/// One dimensionally-split sweep along `dir` with time step `dt`.
/// Mirrors the kernel pipeline stage by stage.
pub fn sweep(s: &mut State, dir: usize, dt: f32) {
    make_boundary(s, dir);
    let prim = constoprim_eos(s);
    let nxt = s.nxt();
    let nyt = s.nyt();
    let n = nxt * nyt;
    let stride = if dir == 0 { 1usize } else { nxt };

    // slope: limited slopes of (rho, un, ut, p) along dir.
    // un = normal velocity, ut = transverse.
    let (un, ut): (&[f32], &[f32]) = if dir == 0 {
        (&prim.u, &prim.v)
    } else {
        (&prim.v, &prim.u)
    };
    let mut drho = vec![0.0f32; n];
    let mut dun = vec![0.0f32; n];
    let mut dut = vec![0.0f32; n];
    let mut dp = vec![0.0f32; n];
    let interior = |i: usize, j: usize| -> bool {
        // One ring beyond the interior so traces exist at boundaries.
        if dir == 0 {
            i >= 1 && i + 1 < nxt && j < nyt
        } else {
            j >= 1 && j + 1 < nyt && i < nxt
        }
    };
    for j in 0..nyt {
        for i in 0..nxt {
            if !interior(i, j) {
                continue;
            }
            let k = j * nxt + i;
            drho[k] = minmod(
                prim.rho[k] - prim.rho[k - stride],
                prim.rho[k + stride] - prim.rho[k],
            );
            dun[k] = minmod(un[k] - un[k - stride], un[k + stride] - un[k]);
            dut[k] = minmod(ut[k] - ut[k - stride], ut[k + stride] - ut[k]);
            dp[k] = minmod(
                prim.p[k] - prim.p[k - stride],
                prim.p[k + stride] - prim.p[k],
            );
        }
    }

    // trace: per-cell plus/minus extrapolated states.
    let mut qm = vec![[0.0f32; 4]; n]; // state at the cell's minus face
    let mut qp = vec![[0.0f32; 4]; n]; // state at the cell's plus face
    for k in 0..n {
        qm[k] = [
            prim.rho[k] - 0.5 * drho[k],
            un[k] - 0.5 * dun[k],
            ut[k] - 0.5 * dut[k],
            prim.p[k] - 0.5 * dp[k],
        ];
        qp[k] = [
            prim.rho[k] + 0.5 * drho[k],
            un[k] + 0.5 * dun[k],
            ut[k] + 0.5 * dut[k],
            prim.p[k] + 0.5 * dp[k],
        ];
    }

    // qleftright: interface f sits between cells k and k+stride;
    // left state = plus face of k, right state = minus face of k+s.
    // riemann: Rusanov wave speed per interface.
    // cmpflx: Rusanov flux per interface.
    let mut flux = vec![[0.0f32; 4]; n];
    let iface_ok = |i: usize, j: usize| -> bool {
        if dir == 0 {
            (1..nxt - 2).contains(&i) && j < nyt
        } else {
            (1..nyt - 2).contains(&j) && i < nxt
        }
    };
    for j in 0..nyt {
        for i in 0..nxt {
            if !iface_ok(i, j) {
                continue;
            }
            let k = j * nxt + i;
            let ql = qp[k];
            let qr = qm[k + stride];
            flux[k] = rusanov_flux(ql, qr);
        }
    }

    // update: interior cells only.
    let dtdx = dt / s.dx;
    for j in NG..NG + s.ny {
        for i in NG..NG + s.nx {
            let k = j * nxt + i;
            let fm = flux[k - stride];
            let fp = flux[k];
            s.rho[k] += dtdx * (fm[0] - fp[0]);
            let (fu, fv) = if dir == 0 { (1, 2) } else { (2, 1) };
            s.rhou[k] += dtdx * (fm[fu] - fp[fu]);
            s.rhov[k] += dtdx * (fm[fv] - fp[fv]);
            s.e[k] += dtdx * (fm[3] - fp[3]);
        }
    }
}

/// Rusanov flux between primitive states `(rho, un, ut, p)`; returns
/// fluxes of `(rho, rho·un, rho·ut, E)`.
pub fn rusanov_flux(ql: [f32; 4], qr: [f32; 4]) -> [f32; 4] {
    let f = |q: [f32; 4]| -> ([f32; 4], [f32; 4], f32) {
        let rho = q[0].max(SMALLR);
        let un = q[1];
        let ut = q[2];
        let p = q[3].max(SMALLP);
        let ek = 0.5 * (un * un + ut * ut);
        let e = rho * ek + p / (GAMMA - 1.0);
        let cons = [rho, rho * un, rho * ut, e];
        let flux = [rho * un, rho * un * un + p, rho * un * ut, (e + p) * un];
        let c = (GAMMA * p / rho).sqrt();
        (cons, flux, un.abs() + c)
    };
    let (ul, fl, sl) = f(ql);
    let (ur, fr, sr) = f(qr);
    let smax = sl.max(sr);
    let mut out = [0.0f32; 4];
    for m in 0..4 {
        out[m] = 0.5 * (fl[m] + fr[m]) - 0.5 * smax * (ur[m] - ul[m]);
    }
    out
}

/// Advance `steps` full time steps (x sweep then y sweep each).
pub fn run(s: &mut State, steps: usize) -> f32 {
    let mut t = 0.0f32;
    for _ in 0..steps {
        let dt = time_step(s);
        sweep(s, 0, dt);
        sweep(s, 1, dt);
        t += dt;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sod_tube_initial_state() {
        let s = State::sod(32, 8);
        assert_eq!(s.nxt(), 36);
        // Pressure jump encoded in energy.
        let left = s.e[s.idx(NG + 2, NG + 2)];
        let right = s.e[s.idx(NG + 28, NG + 2)];
        assert!(left > right * 5.0);
    }

    #[test]
    fn courant_sees_sound_speed() {
        let s = State::sod(32, 8);
        let c = courant(&s);
        // Sound speed of the left state: sqrt(1.4 * 1.0 / 1.0).
        let expect = (gamma_f64() * 1.0f64).sqrt() as f32;
        assert!((c - expect).abs() < 1e-3, "{c} vs {expect}");
    }

    fn gamma_f64() -> f64 {
        GAMMA as f64
    }

    #[test]
    fn mass_is_conserved() {
        let mut s = State::sod(64, 8);
        let m0 = s.total_mass();
        run(&mut s, 20);
        let m1 = s.total_mass();
        assert!(((m1 - m0) / m0).abs() < 1e-4, "mass drift: {m0} -> {m1}");
    }

    #[test]
    fn shock_moves_right_and_state_stays_physical() {
        let mut s = State::sod(64, 8);
        run(&mut s, 30);
        let j = NG + 4;
        // Density bounded and monotone-ish endpoints.
        for i in NG..NG + 64 {
            let r = s.rho[s.idx(i, j)];
            assert!(r > 0.05 && r < 1.2, "rho[{i}] = {r}");
        }
        let left = s.rho[s.idx(NG + 2, j)];
        let right = s.rho[s.idx(NG + 61, j)];
        assert!(left > 0.9, "left state still ~1.0, got {left}");
        assert!(right < 0.2, "right state still ~0.125, got {right}");
        // Rarefaction/contact structure: some intermediate density.
        let mid = s.rho[s.idx(NG + 32, j)];
        assert!(mid < left && mid > right);
    }

    #[test]
    fn y_symmetry_is_preserved() {
        // A Sod tube in x should remain uniform along y.
        let mut s = State::sod(32, 16);
        run(&mut s, 15);
        for i in NG..NG + 32 {
            let base = s.rho[s.idx(i, NG)];
            for j in NG..NG + 16 {
                let v = s.rho[s.idx(i, j)];
                assert!((v - base).abs() < 1e-5, "rho[{i},{j}]: {v} vs {base}");
            }
        }
    }

    #[test]
    fn minmod_limits_correctly() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(2.0, 1.0), 1.0);
        assert_eq!(minmod(-1.0, -3.0), -1.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }

    #[test]
    fn rusanov_is_consistent() {
        // F(q, q) must equal the exact flux of q.
        let q = [1.0f32, 0.3, -0.1, 0.7];
        let f = rusanov_flux(q, q);
        let rho = q[0];
        let e = rho * 0.5 * (q[1] * q[1] + q[2] * q[2]) + q[3] / (GAMMA - 1.0);
        assert!((f[0] - rho * q[1]).abs() < 1e-6);
        assert!((f[1] - (rho * q[1] * q[1] + q[3])).abs() < 1e-6);
        assert!((f[3] - (e + q[3]) * q[1]).abs() < 1e-5);
    }

    #[test]
    fn reflective_boundaries_flip_normal_velocity() {
        let mut s = State::sod(8, 8);
        for k in 0..s.rhou.len() {
            s.rhou[k] = 0.5;
        }
        make_boundary(&mut s, 0);
        let j = NG + 1;
        assert_eq!(s.rhou[s.idx(0, j)], -0.5);
        assert_eq!(s.rhou[s.idx(1, j)], -0.5);
        assert_eq!(s.rhov[s.idx(0, j)], s.rhov[s.idx(3, j)]);
    }
}
