//! `CompiledRelation` makes the same floating-point decisions as the exact
//! path (`first_containing_tuple` / `contains_f64`) — on random points and on
//! points placed within a few ulps of `±1e-9` from a facet, where the
//! tolerance comparison itself decides — for strict, non-strict and
//! equality atoms with non-dyadic coefficients such as 1/3.

use cdb_constraint::{
    Atom, CompOp, CompiledRelation, GeneralizedRelation, GeneralizedTuple, LinTerm,
};
use cdb_num::Rational;
use proptest::prelude::*;

const ARITY: usize = 3;

/// A coefficient `p / q` with a denominator that is mostly not a power of two.
fn coefficient() -> impl Strategy<Value = Rational> {
    (
        -6i64..=6,
        prop_oneof![Just(1i64), Just(2), Just(3), Just(7), Just(10)],
    )
        .prop_map(|(p, q)| Rational::from_ratio(p, q))
}

fn atom() -> impl Strategy<Value = Atom> {
    (
        proptest::collection::vec(coefficient(), ARITY),
        coefficient(),
        prop_oneof![
            Just(CompOp::Lt),
            Just(CompOp::Le),
            Just(CompOp::Eq),
            Just(CompOp::Ge),
            Just(CompOp::Gt)
        ],
    )
        .prop_map(|(coeffs, c, op)| Atom::new(LinTerm::new(coeffs, c), op))
}

fn relation() -> impl Strategy<Value = GeneralizedRelation> {
    proptest::collection::vec(proptest::collection::vec(atom(), 1..5), 1..4).prop_map(|tuples| {
        GeneralizedRelation::from_tuples(
            ARITY,
            tuples
                .into_iter()
                .map(|atoms| GeneralizedTuple::new(ARITY, atoms))
                .collect(),
        )
    })
}

fn point() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-4.0f64..4.0, ARITY)
}

/// Moves coordinate `k` of `base` so that the atom's term evaluates to about
/// `target`, then steps it `ulps` representable values up (or down).
fn on_facet(atom: &Atom, base: &[f64], k: usize, target: f64, ulps: i64) -> Vec<f64> {
    let term = atom.term();
    let ck = term.coeff(k).to_f64();
    let rest: f64 = term.constant_part().to_f64()
        + (0..ARITY)
            .filter(|&i| i != k)
            .map(|i| term.coeff(i).to_f64() * base[i])
            .sum::<f64>();
    let mut p = base.to_vec();
    p[k] = (target - rest) / ck;
    for _ in 0..ulps.unsigned_abs() {
        p[k] = if ulps > 0 {
            p[k].next_up()
        } else {
            p[k].next_down()
        };
    }
    p
}

fn assert_same(
    compiled: &CompiledRelation,
    rel: &GeneralizedRelation,
    p: &[f64],
) -> Result<(), String> {
    for tol in [0.0, 1e-9] {
        prop_assert_eq!(
            compiled.first_containing(p, tol),
            rel.first_containing_tuple(p, tol),
            "point {:?} at tol {}",
            p,
            tol
        );
    }
    prop_assert_eq!(compiled.contains(p), rel.contains_f64(p), "point {:?}", p);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_rows_agree_at_random_points(
        rel in relation(),
        pts in proptest::collection::vec(point(), 16),
    ) {
        let compiled = CompiledRelation::new(&rel);
        for p in &pts {
            assert_same(&compiled, &rel, p)?;
        }
    }

    #[test]
    fn compiled_rows_agree_at_the_tolerance_edge(
        rel in relation(),
        bases in proptest::collection::vec(point(), 4),
    ) {
        let compiled = CompiledRelation::new(&rel);
        for atom in rel.tuples().iter().flat_map(|t| t.atoms()) {
            let Some(k) = (0..ARITY).find(|&i| !atom.term().coeff(i).is_zero()) else {
                continue;
            };
            for base in &bases {
                for target in [-1e-9, 0.0, 1e-9] {
                    for ulps in -2..=2 {
                        let p = on_facet(atom, base, k, target, ulps);
                        assert_same(&compiled, &rel, &p)?;
                    }
                }
            }
        }
    }
}

/// The facet construction really lands on both sides of the tolerance, so the
/// edge property above compares decisions that differ between neighbours.
#[test]
fn facet_points_straddle_the_tolerance() {
    let third = Rational::from_ratio(1, 3);
    let atom = Atom::new(
        LinTerm::new(
            vec![third.clone(), Rational::one(), third],
            Rational::from_ratio(-2, 7),
        ),
        CompOp::Le,
    );
    let rel = GeneralizedRelation::from_tuple(GeneralizedTuple::new(ARITY, vec![atom.clone()]));
    let compiled = CompiledRelation::new(&rel);
    let base = [0.3, -1.1, 2.5];
    let decisions: Vec<bool> = (-40..=40)
        .map(|ulps| {
            let p = on_facet(&atom, &base, 0, 1e-9, ulps * 4096);
            assert_eq!(compiled.contains(&p), rel.contains_f64(&p), "{p:?}");
            compiled.contains(&p)
        })
        .collect();
    assert!(decisions.contains(&true) && decisions.contains(&false));
}
