//! Monomials (exponent vectors) and term orders.

use std::cmp::Ordering;
use std::fmt;

/// Maximum number of variables supported (Katsura-5 needs 6; the fixed
/// array keeps monomials `Copy` and comparison branch-cheap).
pub const MAX_VARS: usize = 8;

/// A power product `x0^e0 · x1^e1 · …` stored as a fixed exponent vector.
/// Variables beyond the ring's arity must stay zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Monomial {
    /// Exponents.
    pub e: [u16; MAX_VARS],
}

impl Monomial {
    /// The unit monomial (all exponents zero).
    pub const ONE: Monomial = Monomial { e: [0; MAX_VARS] };

    /// The single variable `x_i`.
    pub fn var(i: usize) -> Monomial {
        assert!(i < MAX_VARS);
        let mut e = [0u16; MAX_VARS];
        e[i] = 1;
        Monomial { e }
    }

    /// Build from a slice of exponents.
    pub fn from_exps(exps: &[u16]) -> Monomial {
        assert!(exps.len() <= MAX_VARS, "too many variables");
        let mut e = [0u16; MAX_VARS];
        e[..exps.len()].copy_from_slice(exps);
        Monomial { e }
    }

    /// Total degree.
    pub fn degree(&self) -> u32 {
        self.e.iter().map(|&x| x as u32).sum()
    }

    /// True for the unit monomial.
    pub fn is_one(&self) -> bool {
        self.e.iter().all(|&x| x == 0)
    }

    /// Product of two monomials: a lane-wise add with one overflow check
    /// for all lanes (the loop stays branch-free and vectorizes).
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut e = [0u16; MAX_VARS];
        let mut overflow = false;
        for (out, (a, b)) in e.iter_mut().zip(self.e.iter().zip(&other.e)) {
            let (sum, o) = a.overflowing_add(*b);
            *out = sum;
            overflow |= o;
        }
        assert!(!overflow, "monomial exponent overflow");
        Monomial { e }
    }

    /// True when `self` divides `other` componentwise. Every lane is
    /// tested (no short-circuit), so the loop is branch-free.
    pub fn divides(&self, other: &Monomial) -> bool {
        self.e
            .iter()
            .zip(&other.e)
            .fold(true, |ok, (a, b)| ok & (a <= b))
    }

    /// `other / self`, if `self` divides it.
    pub fn div(&self, other: &Monomial) -> Option<Monomial> {
        if !self.divides(other) {
            return None;
        }
        let mut e = [0u16; MAX_VARS];
        for (out, (a, b)) in e.iter_mut().zip(other.e.iter().zip(&self.e)) {
            *out = a - b;
        }
        Some(Monomial { e })
    }

    /// The exponents packed big-endian into one integer: `x0`'s exponent
    /// in the top 16 bits. Integer order on keys is lex order on the
    /// full exponent vectors, which equals lex order over any arity
    /// because exponents past the ring's arity are zero.
    pub fn lex_key(&self) -> u128 {
        self.e.iter().fold(0, |k, &x| (k << 16) | u128::from(x))
    }

    /// Least common multiple (componentwise max).
    pub fn lcm(&self, other: &Monomial) -> Monomial {
        let mut e = [0u16; MAX_VARS];
        for (out, (a, b)) in e.iter_mut().zip(self.e.iter().zip(&other.e)) {
            *out = *a.max(b);
        }
        Monomial { e }
    }

    /// True when the monomials share no variable — Buchberger's *product
    /// criterion*: such a pair's S-polynomial always reduces to zero.
    pub fn coprime(&self, other: &Monomial) -> bool {
        self.e.iter().zip(&other.e).all(|(a, b)| *a == 0 || *b == 0)
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for (i, &e) in self.e.iter().enumerate() {
            if e > 0 {
                if !first {
                    write!(f, "*")?;
                }
                first = false;
                write!(f, "x{i}")?;
                if e > 1 {
                    write!(f, "^{e}")?;
                }
            }
        }
        Ok(())
    }
}

/// A monomial (term) order.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Order {
    /// Pure lexicographic — the order of all Table 2 runs.
    #[default]
    Lex,
    /// Total degree, ties by lex.
    GrLex,
    /// Total degree, ties by reverse lex on reversed variables.
    GRevLex,
}

impl Order {
    /// The sort key of `m`: integer order on keys is this term order.
    /// The lanes past a ring's arity are zero in every monomial, so the
    /// key needs no arity and compares all `MAX_VARS` lanes at once.
    /// Merges compute it once per term.
    pub fn key(&self, m: &Monomial) -> (u32, u128) {
        match self {
            Order::Lex => (0, m.lex_key()),
            Order::GrLex => (m.degree(), m.lex_key()),
            // Degree ties go to the smaller exponent at the last
            // differing variable: pack the lanes last-variable-first and
            // invert.
            Order::GRevLex => (
                m.degree(),
                !m.e.iter().rev().fold(0, |k, &x| (k << 16) | u128::from(x)),
            ),
        }
    }

    /// Compare two monomials in this order. Returns `Greater` when `a` is
    /// the larger monomial.
    pub fn cmp(&self, a: &Monomial, b: &Monomial) -> Ordering {
        self.key(a).cmp(&self.key(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_testkit::prelude::*;

    fn m(exps: &[u16]) -> Monomial {
        Monomial::from_exps(exps)
    }

    #[test]
    fn multiplication_and_division() {
        let a = m(&[2, 1, 0]);
        let b = m(&[1, 0, 3]);
        let p = a.mul(&b);
        assert_eq!(p, m(&[3, 1, 3]));
        assert_eq!(a.div(&p), Some(b));
        assert_eq!(b.div(&p), Some(a));
        assert_eq!(p.div(&a), None, "p does not divide a");
    }

    #[test]
    fn lcm_and_coprimality() {
        let a = m(&[2, 0, 1]);
        let b = m(&[0, 3, 0]);
        assert_eq!(a.lcm(&b), m(&[2, 3, 1]));
        assert!(a.coprime(&b));
        assert!(!a.coprime(&m(&[1, 0, 0])));
        // lcm of coprime monomials is their product
        assert_eq!(a.lcm(&b), a.mul(&b));
    }

    #[test]
    fn lex_order() {
        let o = Order::Lex;
        // x0 > x1^5 in lex
        assert_eq!(o.cmp(&m(&[1, 0]), &m(&[0, 5])), Ordering::Greater);
        assert_eq!(o.cmp(&m(&[1, 2]), &m(&[1, 3])), Ordering::Less);
        assert_eq!(o.cmp(&m(&[2, 2]), &m(&[2, 2])), Ordering::Equal);
        // A full lane never spills into the packed key's next lane.
        for i in 0..MAX_VARS - 1 {
            let (mut lo, mut hi) = (Monomial::ONE, Monomial::ONE);
            lo.e[i + 1] = u16::MAX;
            hi.e[i] = 1;
            assert_eq!(o.cmp(&lo, &hi), Ordering::Less, "lane {i}");
        }
    }

    #[test]
    fn grlex_order() {
        let o = Order::GrLex;
        // degree dominates
        assert_eq!(o.cmp(&m(&[0, 3]), &m(&[2, 0])), Ordering::Greater);
        // ties by lex
        assert_eq!(o.cmp(&m(&[2, 1]), &m(&[1, 2])), Ordering::Greater);
    }

    #[test]
    fn grevlex_order() {
        let o = Order::GRevLex;
        assert_eq!(o.cmp(&m(&[0, 3]), &m(&[2, 0])), Ordering::Greater);
        // classic grevlex tiebreak: x0*x2 < x1^2 in 3 vars
        assert_eq!(o.cmp(&m(&[1, 0, 1]), &m(&[0, 2, 0])), Ordering::Less);
    }

    #[test]
    fn orders_are_total_and_multiplicative() {
        // x < y etc. consistency: a < b  =>  a*c < b*c  (order axiom)
        let mons = [
            m(&[0, 0, 0]),
            m(&[1, 0, 0]),
            m(&[0, 1, 0]),
            m(&[2, 1, 0]),
            m(&[1, 1, 1]),
            m(&[0, 0, 4]),
        ];
        let c = m(&[1, 2, 0]);
        for o in [Order::Lex, Order::GrLex, Order::GRevLex] {
            for a in &mons {
                for b in &mons {
                    let ab = o.cmp(a, b);
                    let acbc = o.cmp(&a.mul(&c), &b.mul(&c));
                    assert_eq!(ab, acbc, "{o:?}: {a:?} vs {b:?}");
                }
                // 1 is the least monomial
                if !a.is_one() {
                    assert_eq!(o.cmp(a, &Monomial::ONE), Ordering::Greater);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn exponent_overflow_is_caught() {
        let big = m(&[u16::MAX, 0]);
        let _ = big.mul(&m(&[1, 0]));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn exponent_overflow_in_the_last_lane_is_caught() {
        let mut e = [0u16; MAX_VARS];
        e[MAX_VARS - 1] = u16::MAX;
        let _ = Monomial { e }.mul(&Monomial::var(MAX_VARS - 1));
    }

    /// Each order over the first `nvars` lanes, one lane at a time: the
    /// definitions the packed keys must agree with.
    fn cmp_by_lanes(o: Order, a: &Monomial, b: &Monomial, nvars: usize) -> Ordering {
        let lex = || {
            for i in 0..nvars {
                match a.e[i].cmp(&b.e[i]) {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        };
        let revlex = || {
            for i in (0..nvars).rev() {
                match b.e[i].cmp(&a.e[i]) {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        };
        match o {
            Order::Lex => lex(),
            Order::GrLex => a.degree().cmp(&b.degree()).then_with(lex),
            Order::GRevLex => a.degree().cmp(&b.degree()).then_with(revlex),
        }
    }

    /// A monomial over `nvars` variables (zero tail) with exponents
    /// below `max`.
    fn arb_mono(nvars: usize, max: u16) -> impl Strategy<Value = Monomial> {
        collection::vec(0..max, nvars).prop_map(|e| Monomial::from_exps(&e))
    }

    /// Two monomials over one arity. Half the cases use exponents below
    /// 3, so equal lanes and equal degrees (the tie-breaks) are common;
    /// the other half use all 16 bits of a lane.
    fn arb_pair() -> impl Strategy<Value = (usize, Monomial, Monomial)> {
        (
            1usize..MAX_VARS + 1,
            prop_oneof![Just(3u16), Just(u16::MAX)],
        )
            .prop_flat_map(|(n, max)| (Just(n), arb_mono(n, max), arb_mono(n, max)))
    }

    /// Halve every exponent, so any two such monomials multiply without
    /// overflow.
    fn halve(m: Monomial) -> Monomial {
        Monomial {
            e: m.e.map(|x| x / 2),
        }
    }

    props! {
        #![config(Config::with_cases(256))]

        #[test]
        fn keys_order_like_the_lane_loops(case in arb_pair()) {
            let (nvars, a, b) = case;
            for o in [Order::Lex, Order::GrLex, Order::GRevLex] {
                prop_assert_eq!(o.cmp(&a, &b), cmp_by_lanes(o, &a, &b, nvars));
            }
            prop_assert_eq!(a.lex_key().cmp(&b.lex_key()), cmp_by_lanes(Order::Lex, &a, &b, nvars));
            prop_assert_eq!(a.lex_key() == b.lex_key(), a == b);
        }

        #[test]
        fn mul_and_divides_match_componentwise(case in arb_pair()) {
            let (a, b) = (halve(case.1), halve(case.2));
            let p = a.mul(&b);
            for i in 0..MAX_VARS {
                prop_assert_eq!(p.e[i], a.e[i] + b.e[i]);
            }
            let divides = (0..MAX_VARS).all(|i| a.e[i] <= b.e[i]);
            prop_assert_eq!(a.divides(&b), divides);
            prop_assert!(a.divides(&p) && b.divides(&p));
            prop_assert_eq!(a.div(&p), Some(b));
        }
    }
}
