//! NPN canonicalization of 2- and 3-input functions.
//!
//! Two functions are NPN-equivalent when one can be obtained from the other
//! by Negating inputs, Permuting inputs, and/or Negating the output. The
//! classes group the 3-input function space for the Figure 2 census
//! (`fig2_s3` counts the classes holding S3-infeasible functions). The
//! Boolean matcher (`vpga_core::matcher`) does not canonicalize: it
//! enumerates each cell's pin bindings directly.
//!
//! The 256 three-input functions fall into 14 NPN classes; the 16 two-input
//! functions fall into 4. Both counts are asserted by unit tests.

use std::sync::OnceLock;

use crate::tt3::{Tt2, Tt3, Var};

/// All six permutations of three elements.
pub const PERMS3: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// The NPN transform that maps a function to its canonical representative.
///
/// Applying [`NpnTransform::apply`] to the original function yields the
/// canonical one; the transform records which original input each
/// canonical input reads, and with which polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    /// `perm[i]` is the original input that canonical input `i` reads.
    pub perm: [usize; 3],
    /// Bit `v`: original input `v` is complemented before permutation.
    pub input_negation: u8,
    /// The output is complemented.
    pub output_negation: bool,
}

impl NpnTransform {
    /// The identity transform.
    pub fn identity() -> NpnTransform {
        NpnTransform {
            perm: [0, 1, 2],
            input_negation: 0,
            output_negation: false,
        }
    }

    /// Applies this transform to `t`.
    pub fn apply(&self, t: Tt3) -> Tt3 {
        let mut r = t;
        for v in Var::ALL {
            if (self.input_negation >> v.index()) & 1 == 1 {
                r = r.negate_var(v);
            }
        }
        r = r.permute(self.perm);
        if self.output_negation {
            !r
        } else {
            r
        }
    }
}

/// The canonical NPN representative of a 3-input function together with the
/// transform that produces it.
///
/// The canonical form is the numerically smallest truth table reachable by
/// any NPN transform.
///
/// # Example
///
/// ```
/// use vpga_logic::{npn, Tt3};
/// let (canon_and, _) = npn::canonicalize3(Tt3::AND3);
/// let (canon_nor, _) = npn::canonicalize3(Tt3::NOR3);
/// assert_eq!(canon_and, canon_nor); // NAND/AND/OR/NOR are one NPN class
/// ```
pub fn canonicalize3(t: Tt3) -> (Tt3, NpnTransform) {
    let table = canonical_table();
    table[t.bits() as usize]
}

fn canonical_table() -> &'static [(Tt3, NpnTransform); 256] {
    static TABLE: OnceLock<[(Tt3, NpnTransform); 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [(Tt3::FALSE, NpnTransform::identity()); 256];
        #[allow(clippy::needless_range_loop)]
        for bits in 0..256usize {
            let t = Tt3::new(bits as u8);
            let mut best = (t, NpnTransform::identity());
            for perm in PERMS3 {
                for neg in 0..8u8 {
                    for out in [false, true] {
                        let tr = NpnTransform {
                            perm,
                            input_negation: neg,
                            output_negation: out,
                        };
                        let r = tr.apply(t);
                        if r.bits() < best.0.bits() {
                            best = (r, tr);
                        }
                    }
                }
            }
            table[bits] = best;
        }
        table
    })
}

/// The canonical NPN representative of a 2-input function.
///
/// The function is lifted over `(a, b)` and canonicalized in the 3-input
/// space restricted to permutations fixing `c`, which is equivalent to 2-input
/// NPN canonicalization.
pub fn canonicalize2(t: Tt2) -> Tt2 {
    let lifted = t.lift(Var::A, Var::B);
    let mut best = lifted;
    for perm in [[0, 1, 2], [1, 0, 2]] {
        for neg in 0..4u8 {
            for out in [false, true] {
                let tr = NpnTransform {
                    perm,
                    input_negation: neg,
                    output_negation: out,
                };
                let r = tr.apply(lifted);
                if r.bits() < best.bits() {
                    best = r;
                }
            }
        }
    }
    let (g, h) = best.cofactors(Var::C);
    debug_assert_eq!(g, h, "canonical 2-input form cannot depend on c");
    g
}

/// Enumerates the distinct NPN classes of 3-input functions, as their
/// canonical representatives in ascending order.
pub fn classes3() -> Vec<Tt3> {
    let mut reps: Vec<Tt3> = Tt3::all().map(|t| canonicalize3(t).0).collect();
    reps.sort();
    reps.dedup();
    reps
}

/// Number of functions in the NPN class of `t`.
pub fn class_size3(t: Tt3) -> usize {
    let canon = canonicalize3(t).0;
    Tt3::all().filter(|&u| canonicalize3(u).0 == canon).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_npn_classes_of_three_inputs() {
        assert_eq!(classes3().len(), 14);
    }

    #[test]
    fn class_sizes_partition_the_space() {
        let total: usize = classes3().iter().map(|&c| class_size3(c)).sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn transform_reproduces_canonical_form() {
        for t in Tt3::all() {
            let (canon, tr) = canonicalize3(t);
            assert_eq!(tr.apply(t), canon, "t={t}");
        }
    }

    #[test]
    fn npn_equivalent_functions_share_canonical_form() {
        let (and, _) = canonicalize3(Tt3::AND3);
        let (nand, _) = canonicalize3(Tt3::NAND3);
        let (or, _) = canonicalize3(Tt3::OR3);
        assert_eq!(and, nand);
        assert_eq!(and, or);
        let (x3, _) = canonicalize3(Tt3::XOR3);
        let (xn3, _) = canonicalize3(Tt3::XNOR3);
        assert_eq!(x3, xn3);
        assert_ne!(and, x3);
    }

    #[test]
    fn parity_class_has_two_members() {
        assert_eq!(class_size3(Tt3::XOR3), 2);
    }

    #[test]
    fn two_input_npn_classes() {
        let mut reps: Vec<Tt2> = Tt2::all().map(canonicalize2).collect();
        reps.sort();
        reps.dedup();
        assert_eq!(reps.len(), 4); // const, literal, and-like, xor-like
        assert_eq!(canonicalize2(Tt2::XOR), canonicalize2(Tt2::XNOR));
        assert_eq!(canonicalize2(Tt2::AND), canonicalize2(Tt2::NOR));
        assert_ne!(canonicalize2(Tt2::AND), canonicalize2(Tt2::XOR));
    }
}
