//! Property tests over the PTX-like text pipeline: randomized kernels
//! built through the [`Emitter`] must survive format → parse → format
//! as a text fixpoint, preserve their Table-V category counts, and the
//! counts themselves must obey the totals/diff invariants the report
//! layer relies on.

use paccport::ptx::count::{CategoryCounts, ModuleCounts};
use paccport::ptx::format::format_module;
use paccport::ptx::instr::{LabelId, Operand, Reg, SpecialReg};
use paccport::ptx::isa::{Category, Opcode, PtxType, CATEGORIES};
use paccport::ptx::kernel::PtxModule;
use paccport::ptx::parse::parse_module;
use paccport::ptx::Emitter;
use paccport::trace::rng::Rng;
use proptest::prelude::*;

const F_BIN: [Opcode; 6] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Div,
    Opcode::Max,
    Opcode::Min,
];
const F_UN: [Opcode; 5] = [
    Opcode::Abs,
    Opcode::Neg,
    Opcode::Sqrt,
    Opcode::Rcp,
    Opcode::Ex2,
];
const I_BIN: [Opcode; 7] = [
    Opcode::Add,
    Opcode::Mul,
    Opcode::Rem,
    Opcode::And,
    Opcode::Or,
    Opcode::Shl,
    Opcode::Shr,
];
const SREGS: [SpecialReg; 4] = [
    SpecialReg::TidX,
    SpecialReg::CtaIdX,
    SpecialReg::NTidX,
    SpecialReg::NCtaIdX,
];

/// Emit a random but well-formed kernel. The mix respects the parser's
/// operand conventions: value-producing opcodes write a fresh dst,
/// stores/branches/atomics are dst-less, float immediates stay exactly
/// f32-representable (the text form is `0f%08X` of the f32 bits).
fn random_kernel(name: &str, seed: u64, len: usize) -> paccport::ptx::kernel::PtxKernel {
    // One sampled seed drives the whole instruction mix, instead of a
    // strategy per choice.
    let mut rng = Rng::new(seed);
    let mut e = Emitter::new(name);
    e.add_param("a");
    e.add_param("b");

    let base = e.emit(
        Opcode::LdParam,
        PtxType::U64,
        vec![Operand::Sym("a".into())],
    );
    let addr = e.un(Opcode::CvtaToGlobal, PtxType::U64, base);
    let mut fregs: Vec<Reg> = vec![e.mov_imm_f(1.5)];
    let mut iregs: Vec<Reg> = vec![e.mov_imm_i(PtxType::S32, 7)];
    let mut labels: Vec<LabelId> = Vec::new();

    for _ in 0..len {
        match rng.below(14) {
            0 => {
                let (a, b) = (*rng.pick(&fregs), *rng.pick(&fregs));
                let op = *rng.pick(&F_BIN);
                fregs.push(e.bin(op, PtxType::F32, a, b));
            }
            1 => {
                let a = *rng.pick(&fregs);
                let op = *rng.pick(&F_UN);
                fregs.push(e.un(op, PtxType::F32, a));
            }
            2 => {
                let (a, b) = (*rng.pick(&iregs), *rng.pick(&iregs));
                let op = *rng.pick(&I_BIN);
                iregs.push(e.bin(op, PtxType::S32, a, b));
            }
            3 => {
                // Exactly f32-representable: small multiples of 1/4.
                let v = rng.below(64) as f64 * 0.25 - 8.0;
                fregs.push(e.mov_imm_f(v));
            }
            4 => {
                let v = rng.below(2048) as i64 - 1024;
                iregs.push(e.mov_imm_i(PtxType::S32, v));
            }
            5 => {
                let s = *rng.pick(&SREGS);
                iregs.push(e.emit(Opcode::Mov, PtxType::U32, vec![Operand::Sreg(s)]));
            }
            6 => {
                fregs.push(e.emit(Opcode::LdGlobal, PtxType::F32, vec![addr.into()]));
            }
            7 => {
                let v = *rng.pick(&fregs);
                e.emit_void(Opcode::StGlobal, PtxType::F32, vec![addr.into(), v.into()]);
            }
            8 => {
                let i = *rng.pick(&iregs);
                fregs.push(e.emit(Opcode::LdShared, PtxType::F32, vec![i.into()]));
            }
            9 => {
                let (i, v) = (*rng.pick(&iregs), *rng.pick(&fregs));
                e.emit_void(Opcode::StShared, PtxType::F32, vec![i.into(), v.into()]);
            }
            10 => {
                let l = e.label();
                e.place(l);
                labels.push(l);
            }
            11 => {
                if let Some(&l) = labels.last() {
                    let (a, b) = (*rng.pick(&iregs), *rng.pick(&iregs));
                    let p = e.bin(Opcode::Setp, PtxType::S32, a, b);
                    e.branch_if(p, l);
                }
            }
            12 => {
                let (a, b) = (*rng.pick(&fregs), *rng.pick(&fregs));
                let c = e.bin(Opcode::Fma, PtxType::F32, a, b);
                let i = *rng.pick(&fregs);
                fregs.push(e.bin(Opcode::Fma, PtxType::F32, c, i));
            }
            _ => {
                e.emit_void(Opcode::BarSync, PtxType::U32, vec![Operand::ImmI(0)]);
            }
        }
    }
    e.finish()
}

fn random_module(seed: u64, kernels: usize, len: usize) -> PtxModule {
    PtxModule {
        producer: format!("CAPS 3.4.1 (Cuda -> K40) [seed {seed}]"),
        kernels: (0..kernels)
            .map(|k| {
                random_kernel(
                    &format!("kern_{k}"),
                    seed ^ (k as u64).wrapping_mul(0xa5a5),
                    len,
                )
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// format → parse → format is a text fixpoint, and a second parse
    /// reproduces the first parse exactly (structural idempotence).
    #[test]
    fn format_parse_format_is_a_fixpoint(seed in 0u64..1_000_000, kernels in 1usize..4, len in 0usize..60) {
        let m = random_module(seed, kernels, len);
        let text = format_module(&m);
        let back = parse_module(&text).expect("formatter output must parse");
        let text2 = format_module(&back);
        prop_assert_eq!(&text, &text2, "reformatted text diverged");
        prop_assert_eq!(parse_module(&text2).expect("second parse"), back);
    }

    /// Parsing preserves everything the analysis layer reads: producer,
    /// kernel names/params, instruction counts per kernel and module.
    #[test]
    fn roundtrip_preserves_counts(seed in 0u64..1_000_000, len in 1usize..80) {
        let m = random_module(seed, 2, len);
        let back = parse_module(&format_module(&m)).expect("parse");
        prop_assert_eq!(&back.producer, &m.producer);
        prop_assert_eq!(back.kernels.len(), m.kernels.len());
        for (k0, k1) in m.kernels.iter().zip(&back.kernels) {
            prop_assert_eq!(&k0.name, &k1.name);
            prop_assert_eq!(&k0.params, &k1.params);
            prop_assert_eq!(k0.len(), k1.len());
            prop_assert_eq!(k0.counts(), k1.counts());
        }
        prop_assert_eq!(back.counts(), m.counts());
        prop_assert_eq!(ModuleCounts::from_module(&back), ModuleCounts::from_module(&m));
    }

    /// Table-V count algebra: totals partition over categories, the
    /// plotted total is exactly total minus sync, self-diff is empty,
    /// and the module total is the fold of the per-kernel totals.
    #[test]
    fn category_count_totals_are_consistent(seed in 0u64..1_000_000, len in 0usize..100) {
        let m = random_module(seed, 3, len);
        for k in &m.kernels {
            let c = k.counts();
            let by_cat: u64 = CATEGORIES.iter().map(|cat| c.get(*cat)).sum();
            prop_assert_eq!(c.total(), by_cat, "total must partition over categories");
            prop_assert_eq!(
                c.total_plotted(),
                c.total() - c.get(Category::Sync),
                "plotted total must exclude exactly the sync bucket"
            );
            prop_assert_eq!(c.total(), k.len() as u64, "one bump per instruction");
            prop_assert!(c.unchanged_from(&c));
            prop_assert!(c.diff(&c).is_empty());
            prop_assert_eq!(
                c.iter().map(|(_, n)| n).sum::<u64>(),
                c.total(),
                "iter() must visit every bucket once"
            );
        }
        let folded = m
            .kernels
            .iter()
            .map(|k| k.counts())
            .fold(CategoryCounts::default(), |a, b| a + b);
        prop_assert_eq!(m.counts(), folded);
        prop_assert_eq!(ModuleCounts::from_module(&m).total(), folded);
    }

    /// diff() is an exact inverse delta: applying it to the baseline's
    /// counts reconstructs the changed version, and diff/unchanged_from
    /// agree about whether anything moved.
    #[test]
    fn diff_reconstructs_the_delta(seed in 0u64..1_000_000, extra in 0u64..9) {
        let m = random_module(seed, 1, 40);
        let before = m.kernels[0].counts();
        let mut after = before;
        after.add_n(Category::Arithmetic, extra);
        after.add_n(Category::GlobalMemory, extra * 2);

        let d = after.diff(&before);
        prop_assert_eq!(after.unchanged_from(&before), d.is_empty());
        let mut rebuilt = before;
        for (cat, delta) in &d {
            prop_assert!(*delta > 0, "this delta only ever adds");
            rebuilt.add_n(*cat, *delta as u64);
        }
        prop_assert_eq!(rebuilt, after);
    }
}

/// A corrupt listing must fail with the offending line, not panic —
/// this is the error path `parse_module` promises its callers.
#[test]
fn parse_errors_locate_the_bad_line() {
    let m = random_module(7, 1, 20);
    let mut text = format_module(&m);
    text.push_str("    frob.f32 \t%f1, %f2;\n");
    let bad_line = text.lines().count();
    let e = parse_module(&text).expect_err("unknown opcode must not parse");
    assert_eq!(e.line, bad_line);
    assert!(e.message.contains("frob"));
}

/// The first draws of seed 3, pinned so the generated instruction
/// mixes never shift under the shared generator.
#[test]
fn instruction_mix_stream_known_answer() {
    let mut rng = Rng::new(3);
    assert_eq!(rng.below(14), 9);
    assert_eq!(*rng.pick(&F_BIN), Opcode::Div);
    assert_eq!(rng.below(2048), 1281);
}
