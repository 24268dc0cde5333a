//! Work-group state must not leak from one group to the next.
//!
//! Both tiers keep every lane's scalar state and the group's local
//! arrays in buffers reused across the groups of a launch. Each group
//! must still start from the launch-time environment and zeroed
//! locals, exactly as if it had been given fresh ones.

use paccport_devsim::interp::KernelFidelity;
use paccport_devsim::{exec_kernel_tiered, fresh_vars, Buffer, ExecTier, RaceTracker, V};
use paccport_ir::{
    assign, if_, ld_local, let_, st, st_local, Block, CmpOp, Expr, GroupedBody, Intent, Kernel,
    KernelBody, LocalArrayDecl, ParallelLoop, ProgramBuilder, Scalar, SpecialVar, E,
};

const GROUPS: usize = 3;
const LANES: usize = 4;

#[test]
fn each_group_starts_from_launch_state_and_zeroed_locals() {
    let mut b = ProgramBuilder::new("groups");
    let out_var = b.array("out_var", Scalar::F32, (GROUPS * LANES) as i64, Intent::Out);
    let out_local = b.array(
        "out_local",
        Scalar::F32,
        (GROUPS * LANES) as i64,
        Intent::Out,
    );
    let grp = b.var("grp");
    let lid = b.var("lid");
    let t = b.var("t");
    let sdata = paccport_ir::ArrayId(0);
    let slot = E::from(grp) * LANES as i64 + lid;
    // Phase 0: only group 0 overwrites the lane-private `t` and fills
    // the local array. Phase 1: every lane publishes both.
    let phases = vec![
        Block::new(vec![
            let_(lid, Scalar::I32, Expr::Special(SpecialVar::LocalId(0))),
            if_(
                Expr::cmp(
                    CmpOp::Eq,
                    Expr::Special(SpecialVar::GroupId(0)),
                    Expr::iconst(0),
                ),
                vec![assign(t, 7.0), st_local(sdata, lid, E::from(lid) + 5.0)],
            ),
        ]),
        Block::new(vec![
            st(out_var, slot.clone(), E::from(t)),
            st(out_local, slot, ld_local(sdata, lid)),
        ]),
    ];
    let mut k = Kernel::simple(
        "groups",
        vec![ParallelLoop::new(
            grp,
            Expr::iconst(0),
            Expr::iconst(GROUPS as i64),
        )],
        Block::default(),
    );
    k.body = KernelBody::Grouped(GroupedBody {
        group_size: LANES as u32,
        locals: vec![LocalArrayDecl {
            name: "sdata".into(),
            elem: Scalar::F32,
            len: LANES,
        }],
        phases,
    });
    let p = b.finish(vec![]);

    let mut want_var = vec![1.0f32; GROUPS * LANES];
    let mut want_local = vec![0.0f32; GROUPS * LANES];
    for lane in 0..LANES {
        want_var[lane] = 7.0;
        want_local[lane] = lane as f32 + 5.0;
    }

    let mut reference: Option<Vec<Vec<u64>>> = None;
    for tier in [ExecTier::Tree, ExecTier::Bytecode] {
        for tracked in [false, true] {
            let tracker = RaceTracker::new(
                "groups",
                vec![("out_var", GROUPS * LANES), ("out_local", GROUPS * LANES)],
                vec![("sdata", LANES)],
                false,
            );
            let mut bufs = vec![
                Buffer::zeroed(Scalar::F32, GROUPS * LANES),
                Buffer::zeroed(Scalar::F32, GROUPS * LANES),
            ];
            // `t` is bound before the launch, like a host-loop variable.
            let mut vars = fresh_vars(&p);
            vars[t.0 as usize] = Some(V::F(1.0));
            exec_kernel_tiered(
                &p,
                &[],
                &k,
                &mut vars,
                &mut bufs,
                KernelFidelity::Exact,
                tracked.then_some(&tracker),
                tier,
            );
            let what = format!("{tier:?}, tracker {tracked}");
            assert_eq!(bufs[0].as_f32(), want_var, "{what}: lane-private `t`");
            assert_eq!(bufs[1].as_f32(), want_local, "{what}: local array");
            if tracked {
                assert!(tracker.races().is_empty(), "{what}: {:?}", tracker.races());
            }
            let bits: Vec<Vec<u64>> = bufs.iter().map(Buffer::bits).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(&bits, r, "{what}: not bitwise equal to the tree tier"),
            }
        }
    }
}
