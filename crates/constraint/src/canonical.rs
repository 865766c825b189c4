//! Canonicalization of `FO + LIN` formulas: the cache-key pass of the
//! prepared-relation store.
//!
//! Two stored relations with syntactically different but equivalent
//! descriptions — atoms listed in a different order, coefficients scaled by
//! a positive rational, `≥` written instead of `≤`, bound variables named
//! differently — must map to the same prepared generator body. This module
//! computes a canonical representative of a formula's syntactic equivalence
//! class and renders it into a stable, hashable [`CanonicalKey`]:
//!
//! * **atoms** are put through [`Atom::canonicalized`](crate::atom::Atom::canonicalized):
//!   operators reduced to
//!   `{<, ≤, =}`, denominators cleared, coefficients divided by their gcd,
//!   and equality terms sign-oriented (`t = 0` ≡ `−t = 0`);
//! * **conjunctions and disjunctions** are flattened, unit-pruned
//!   (`True`/`False`), deduplicated and sorted by their rendered form, so
//!   atom order is invisible;
//! * **bound variables** of a quantifier-free `Exists` body are renamed onto
//!   a dense canonical range above the free variables; blocks of up to
//!   [`MAX_ORBIT_VARS`] bound variables are orbit-minimized over every
//!   assignment order, making *arbitrary* renamings (not just
//!   order-preserving ones) invisible;
//! * **trailing zero coefficients** are trimmed from every atom's rendering,
//!   so padding a formula into a larger ambient arity does not change its
//!   key — the ambient dimension is recorded once, in the key prefix.
//!
//! The rendered key is the store's map key; [`CanonicalKey::hash64`] is the
//! stable 64-bit digest the store uses for sharding and the prepared-body
//! setup streams are derived from (preparation randomness must be a pure
//! function of the key for cache hits to be bitwise invisible).

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::formula::Formula;
use crate::relation::GeneralizedRelation;

/// Bound-variable blocks up to this size are canonicalized by trying every
/// assignment order and keeping the lexicographically smallest rendering
/// (`5! = 120` candidates at most). Larger blocks fall back to renaming in
/// increasing index order, which still covers order-preserving renamings.
pub const MAX_ORBIT_VARS: usize = 5;

/// A canonicalized formula rendered into a stable string form, usable as a
/// hash-map key. Construct through [`CanonicalKey::of_formula`] or
/// [`CanonicalKey::of_relation`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalKey(String);

impl CanonicalKey {
    /// Canonicalizes `formula` in the given ambient arity and renders the
    /// key. Formulas equal up to atom order, positive coefficient scaling,
    /// operator orientation and bound-variable renaming share a key; the
    /// ambient arity is part of the key because the same constraint text
    /// describes different sets in different dimensions.
    pub fn of_formula(formula: &Formula, arity: usize) -> CanonicalKey {
        let canonical = canonicalize(formula);
        CanonicalKey(format!("d{arity}|{}", render(&canonical)))
    }

    /// The key of a stored relation: its defining DNF formula in its own
    /// arity. Relations with identical content — even under different names
    /// or with reordered tuples — share a key.
    pub fn of_relation(relation: &GeneralizedRelation) -> CanonicalKey {
        CanonicalKey::of_formula(&relation.to_formula(), relation.arity())
    }

    /// The rendered canonical form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Stable 64-bit digest (FNV-1a over the rendering): used for store
    /// sharding and for deriving the key's preparation seed stream.
    pub fn hash64(&self) -> u64 {
        let mut hasher = ContentHasher(FNV_OFFSET);
        hasher.write(self.0.as_bytes());
        hasher.0
    }
}

/// A stable 64-bit digest of a value's *exact* content: FNV-1a over its
/// [`Hash`] stream, with integers fed little-endian so the digest does not
/// depend on the platform.
///
/// Unlike [`CanonicalKey`], two relations equal up to atom order or scaling
/// get different digests. Prepared state built from the exact atoms (a
/// generator body, a reconstruction piece) is keyed by it as well, so one
/// spelling of a set never attaches state built from another spelling.
pub fn content_digest<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = ContentHasher(FNV_OFFSET);
    value.hash(&mut hasher);
    hasher.0
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The FNV-1a state behind [`content_digest`].
struct ContentHasher(u64);

impl Hasher for ContentHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

impl fmt::Display for CanonicalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The canonical representative of the formula's syntactic equivalence
/// class (see the module docs for the exact invariances).
pub fn canonicalize(formula: &Formula) -> Formula {
    match formula {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Atom(a) => Formula::Atom(a.canonicalized()),
        Formula::Rel(name, vars) => Formula::Rel(name.clone(), vars.clone()),
        Formula::And(parts) => {
            let mut flat = Vec::new();
            for p in parts {
                match canonicalize(p) {
                    Formula::True => {}
                    Formula::False => return Formula::False,
                    Formula::And(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            sorted_connective(flat, true)
        }
        Formula::Or(parts) => {
            let mut flat = Vec::new();
            for p in parts {
                match canonicalize(p) {
                    Formula::False => {}
                    Formula::True => return Formula::True,
                    Formula::Or(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            sorted_connective(flat, false)
        }
        Formula::Not(inner) => match canonicalize(inner) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(g) => *g,
            g => Formula::Not(Box::new(g)),
        },
        Formula::Exists(vars, body) => canonicalize_exists(vars, body),
    }
}

/// Sorts canonical children by their rendering and deduplicates.
fn sorted_connective(mut parts: Vec<Formula>, conjunction: bool) -> Formula {
    let mut rendered: Vec<(String, Formula)> = parts.drain(..).map(|f| (render(&f), f)).collect();
    rendered.sort_by(|a, b| a.0.cmp(&b.0));
    rendered.dedup_by(|a, b| a.0 == b.0);
    let children = rendered.into_iter().map(|(_, f)| f).collect();
    if conjunction {
        Formula::and(children)
    } else {
        Formula::or(children)
    }
}

fn canonicalize_exists(vars: &[usize], body: &Formula) -> Formula {
    let mut bound: BTreeSet<usize> = vars.iter().copied().collect();
    let mut inner = canonicalize(body);
    // Adjacent quantifier blocks merge: ∃x.∃y.φ ≡ ∃x,y.φ (shadowed indices
    // deduplicate harmlessly — the inner binding was the live one).
    while let Formula::Exists(inner_vars, inner_body) = inner {
        bound.extend(inner_vars);
        inner = *inner_body;
    }
    match &inner {
        Formula::True => return Formula::True,
        Formula::False => return Formula::False,
        _ => {}
    }
    if !inner.is_quantifier_free() {
        // Non-adjacent nesting: keep the (sorted) block as-is; the bodies
        // were canonicalized recursively.
        let vars: Vec<usize> = bound.into_iter().collect();
        return Formula::exists(vars, inner);
    }
    // Drop bound variables the body never mentions: ∃x.φ ≡ φ over R.
    let used = used_variables(&inner);
    let live: Vec<usize> = bound.into_iter().filter(|v| used.contains(v)).collect();
    if live.is_empty() {
        return inner;
    }
    // Free floor: one past the largest mentioned index that stays free.
    let floor = used
        .iter()
        .filter(|v| !live.contains(v))
        .max()
        .map_or(0, |m| m + 1);
    let targets: Vec<usize> = (0..live.len()).map(|i| floor + i).collect();
    if live.len() <= MAX_ORBIT_VARS {
        // Orbit minimization: try every assignment of bound variables onto
        // the canonical targets and keep the smallest rendering, so any
        // bijective renaming of the block is invisible.
        let mut best: Option<(String, Formula)> = None;
        let mut order: Vec<usize> = (0..live.len()).collect();
        permutations(&mut order, 0, &mut |perm| {
            let mut mapping = vec![0usize; mention_ceiling(&inner)];
            for (i, m) in mapping.iter_mut().enumerate() {
                *m = if i < floor { i } else { 0 };
            }
            for (slot, &which) in perm.iter().enumerate() {
                mapping[live[which]] = targets[slot];
            }
            let remapped = canonicalize(&remap_free(&inner, floor + live.len(), &mapping));
            let candidate = Formula::exists(targets.clone(), remapped);
            let rendering = render(&candidate);
            if best.as_ref().is_none_or(|(r, _)| rendering < *r) {
                best = Some((rendering, candidate));
            }
        });
        best.expect("at least one permutation").1
    } else {
        let mut mapping = vec![0usize; mention_ceiling(&inner)];
        for (i, m) in mapping.iter_mut().enumerate() {
            *m = if i < floor { i } else { 0 };
        }
        for (slot, &v) in live.iter().enumerate() {
            mapping[v] = targets[slot];
        }
        let remapped = canonicalize(&remap_free(&inner, floor + live.len(), &mapping));
        Formula::exists(targets, remapped)
    }
}

/// Indices mentioned by the quantifier-free formula: non-zero coefficients
/// of linear atoms plus every relation-atom argument.
fn used_variables(f: &Formula) -> BTreeSet<usize> {
    let mut used = BTreeSet::new();
    collect_used(f, &mut used);
    used
}

fn collect_used(f: &Formula, used: &mut BTreeSet<usize>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Atom(a) => {
            for (i, c) in a.term().coeffs().iter().enumerate() {
                if !c.is_zero() {
                    used.insert(i);
                }
            }
        }
        Formula::Rel(_, vars) => used.extend(vars.iter().copied()),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| collect_used(g, used)),
        Formula::Not(g) => collect_used(g, used),
        Formula::Exists(vars, g) => {
            used.extend(vars.iter().copied());
            collect_used(g, used);
        }
    }
}

/// One past the largest index any atom of the quantifier-free formula can
/// address — the length the remap mapping must cover.
fn mention_ceiling(f: &Formula) -> usize {
    match f {
        Formula::True | Formula::False => 0,
        Formula::Atom(a) => a.arity(),
        Formula::Rel(_, vars) => vars.iter().map(|v| v + 1).max().unwrap_or(0),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().map(mention_ceiling).max().unwrap_or(0),
        Formula::Not(g) => mention_ceiling(g),
        Formula::Exists(vars, g) => {
            mention_ceiling(g).max(vars.iter().map(|v| v + 1).max().unwrap_or(0))
        }
    }
}

/// Applies a variable mapping to a quantifier-free formula. `mapping` must
/// cover every mentioned index; unmentioned indices may map anywhere (their
/// coefficients are zero).
fn remap_free(f: &Formula, new_arity: usize, mapping: &[usize]) -> Formula {
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Atom(a) => Formula::Atom(a.remap(new_arity, &mapping[..a.arity()])),
        Formula::Rel(name, vars) => {
            Formula::Rel(name.clone(), vars.iter().map(|&v| mapping[v]).collect())
        }
        Formula::And(fs) => Formula::And(
            fs.iter()
                .map(|g| remap_free(g, new_arity, mapping))
                .collect(),
        ),
        Formula::Or(fs) => Formula::Or(
            fs.iter()
                .map(|g| remap_free(g, new_arity, mapping))
                .collect(),
        ),
        Formula::Not(g) => Formula::Not(Box::new(remap_free(g, new_arity, mapping))),
        Formula::Exists(..) => unreachable!("remap_free is called on quantifier-free bodies"),
    }
}

/// Calls `visit` with every permutation of `order[k..]` (Heap-style
/// recursion; the caller passes `k = 0`).
fn permutations(order: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k + 1 >= order.len() {
        visit(order);
        return;
    }
    for i in k..order.len() {
        order.swap(k, i);
        permutations(order, k + 1, visit);
        order.swap(k, i);
    }
}

/// Deterministic rendering of a canonical formula. Atoms are printed with
/// trailing zero coefficients trimmed, so arity padding is invisible (the
/// ambient dimension lives in the key prefix instead).
fn render(f: &Formula) -> String {
    let mut out = String::new();
    render_into(f, &mut out);
    out
}

fn render_into(f: &Formula, out: &mut String) {
    use std::fmt::Write;
    match f {
        Formula::True => out.push('T'),
        Formula::False => out.push('F'),
        Formula::Atom(a) => {
            let op = match a.op() {
                crate::atom::CompOp::Lt => '<',
                crate::atom::CompOp::Le => 'l',
                crate::atom::CompOp::Eq => '=',
                // canonicalized() leaves only {<, ≤, =}; render flipped ops
                // distinctly anyway so an un-canonicalized atom cannot alias.
                crate::atom::CompOp::Ge => 'g',
                crate::atom::CompOp::Gt => '>',
            };
            let coeffs = a.term().coeffs();
            let last = coeffs
                .iter()
                .rposition(|c| !c.is_zero())
                .map_or(0, |i| i + 1);
            let _ = write!(out, "A{op}[");
            for (i, c) in coeffs[..last].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, ";{}]", a.term().constant_part());
        }
        Formula::Rel(name, vars) => {
            let _ = write!(out, "R{}(", name);
            for (i, v) in vars.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(')');
        }
        Formula::And(fs) | Formula::Or(fs) => {
            out.push(if matches!(f, Formula::And(_)) {
                '&'
            } else {
                '|'
            });
            out.push('(');
            for (i, g) in fs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(g, out);
            }
            out.push(')');
        }
        Formula::Not(g) => {
            out.push('!');
            out.push('(');
            render_into(g, out);
            out.push(')');
        }
        Formula::Exists(vars, g) => {
            out.push('E');
            out.push('[');
            for (i, v) in vars.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
            out.push('(');
            render_into(g, out);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, CompOp};
    use crate::term::LinTerm;
    use cdb_num::Rational;

    fn le(coeffs: &[i64], c: i64) -> Formula {
        Formula::Atom(Atom::le_from_ints(coeffs, c))
    }

    fn key(f: &Formula, arity: usize) -> CanonicalKey {
        CanonicalKey::of_formula(f, arity)
    }

    #[test]
    fn content_digest_sees_exact_content_only() {
        use crate::tuple::GeneralizedTuple;
        let a = GeneralizedTuple::new(
            2,
            vec![
                Atom::le_from_ints(&[1, 0], -1),
                Atom::le_from_ints(&[0, 1], -1),
            ],
        );
        let swapped = GeneralizedTuple::new(
            2,
            vec![
                Atom::le_from_ints(&[0, 1], -1),
                Atom::le_from_ints(&[1, 0], -1),
            ],
        );
        // Equal up to atom order: one canonical key, two content digests.
        let rel = |t: &GeneralizedTuple| GeneralizedRelation::from_tuple(t.clone());
        assert_eq!(
            CanonicalKey::of_relation(&rel(&a)),
            CanonicalKey::of_relation(&rel(&swapped))
        );
        assert_ne!(content_digest(&a), content_digest(&swapped));
        assert_eq!(content_digest(&a), content_digest(&a.clone()));
        // Pinned: FNV-1a over the little-endian bytes of the value, the same
        // on every platform.
        assert_eq!(content_digest(&[1u32, 2]), content_digest(&vec![1u32, 2]));
        assert_eq!(content_digest(&7u64), 0x4BD7_A317_074C_5B62);
    }

    #[test]
    fn atom_order_is_invisible() {
        let a = Formula::and(vec![le(&[1, 0], -1), le(&[0, 1], -2)]);
        let b = Formula::and(vec![le(&[0, 1], -2), le(&[1, 0], -1)]);
        assert_eq!(key(&a, 2), key(&b, 2));
    }

    #[test]
    fn positive_scaling_and_orientation_are_invisible() {
        // 2x - 4 <= 0  ≡  x - 2 <= 0  ≡  -(x - 2) >= 0, and with halved
        // coefficients.
        let a = Formula::Atom(Atom::le_from_ints(&[2], -4));
        let b = Formula::Atom(Atom::le_from_ints(&[1], -2));
        let c = Formula::Atom(Atom::new(LinTerm::from_ints(&[-1], 2), CompOp::Ge));
        let d = Formula::Atom(Atom::new(
            LinTerm::new(vec![Rational::from_ratio(1, 2)], Rational::from_int(-1)),
            CompOp::Le,
        ));
        let k = key(&a, 1);
        assert_eq!(k, key(&b, 1));
        assert_eq!(k, key(&c, 1));
        assert_eq!(k, key(&d, 1));
    }

    #[test]
    fn equality_sign_is_oriented() {
        let a = Formula::Atom(Atom::new(LinTerm::from_ints(&[1, -1], 0), CompOp::Eq));
        let b = Formula::Atom(Atom::new(LinTerm::from_ints(&[-1, 1], 0), CompOp::Eq));
        assert_eq!(key(&a, 2), key(&b, 2));
    }

    #[test]
    fn arity_padding_is_invisible_but_ambient_arity_is_not() {
        let a = le(&[1], -1);
        let padded = le(&[1, 0], -1);
        assert_eq!(key(&a, 2), key(&padded, 2));
        assert_ne!(key(&a, 1), key(&a, 2), "dimension must stay in the key");
    }

    #[test]
    fn bound_variable_renaming_is_invisible() {
        // ∃x2. (x0 ≤ x2 ∧ x2 ≤ x1)  vs the same with the bound variable
        // renamed to x5 (a non-adjacent index).
        let body2 = Formula::and(vec![le(&[1, 0, -1], 0), le(&[0, -1, 1], 0)]);
        let f2 = Formula::exists(vec![2], body2);
        let body5 = Formula::and(vec![
            le(&[1, 0, 0, 0, 0, -1], 0),
            le(&[0, -1, 0, 0, 0, 1], 0),
        ]);
        let f5 = Formula::exists(vec![5], body5);
        assert_eq!(key(&f2, 2), key(&f5, 2));
    }

    #[test]
    fn swapping_two_bound_variables_is_invisible() {
        // ∃x1,x2. (x0 ≤ x1 ∧ x1 ≤ x2) with the roles of x1/x2 exchanged.
        let a = Formula::exists(
            vec![1, 2],
            Formula::and(vec![le(&[1, -1, 0], 0), le(&[0, 1, -1], 0)]),
        );
        let b = Formula::exists(
            vec![1, 2],
            Formula::and(vec![le(&[1, 0, -1], 0), le(&[0, -1, 1], 0)]),
        );
        assert_eq!(key(&a, 1), key(&b, 1));
    }

    #[test]
    fn unused_bound_variables_are_dropped() {
        let f = Formula::exists(vec![1], le(&[1], -1));
        assert_eq!(key(&f, 1), key(&le(&[1], -1), 1));
    }

    #[test]
    fn adjacent_quantifier_blocks_merge() {
        let body = Formula::and(vec![le(&[1, -1, 0], 0), le(&[0, 1, -1], 0)]);
        let nested = Formula::exists(vec![1], Formula::exists(vec![2], body.clone()));
        let flat = Formula::exists(vec![1, 2], body);
        assert_eq!(key(&nested, 1), key(&flat, 1));
    }

    #[test]
    fn connective_units_simplify() {
        let t = Formula::and(vec![Formula::True, le(&[1], 0)]);
        assert_eq!(key(&t, 1), key(&le(&[1], 0), 1));
        let f = Formula::and(vec![Formula::False, le(&[1], 0)]);
        assert_eq!(key(&f, 1), key(&Formula::False, 1));
        let o = Formula::or(vec![Formula::True, le(&[1], 0)]);
        assert_eq!(key(&o, 1), key(&Formula::True, 1));
        let nn = Formula::not(Formula::not(le(&[1], 0)));
        assert_eq!(key(&nn, 1), key(&le(&[1], 0), 1));
    }

    #[test]
    fn distinct_semantics_keep_distinct_keys() {
        assert_ne!(key(&le(&[1], -1), 1), key(&le(&[1], -2), 1));
        assert_ne!(
            key(&le(&[1], -1), 1),
            key(
                &Formula::Atom(Atom::new(LinTerm::from_ints(&[1], -1), CompOp::Lt)),
                1
            ),
            "strictness is semantic"
        );
        assert_ne!(
            key(&Formula::rel("R", vec![0]), 1),
            key(&Formula::rel("S", vec![0]), 1)
        );
    }

    #[test]
    fn relation_keys_ignore_name_and_tuple_order() {
        let a = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
        let b = GeneralizedRelation::from_box_f64(&[2.0, 0.0], &[3.0, 1.0]);
        let ab = a.union(&b);
        let ba = b.union(&a);
        assert_eq!(
            CanonicalKey::of_relation(&ab),
            CanonicalKey::of_relation(&ba)
        );
        assert_ne!(CanonicalKey::of_relation(&a), CanonicalKey::of_relation(&b));
    }

    #[test]
    fn key_hash_is_stable_across_calls() {
        let k = CanonicalKey::of_formula(&le(&[1, 2], -3), 2);
        assert_eq!(k.hash64(), k.hash64());
        let other = CanonicalKey::of_formula(&le(&[1, 2], -4), 2);
        assert_ne!(k.hash64(), other.hash64());
    }
}
