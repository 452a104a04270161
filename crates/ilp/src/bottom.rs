//! Bottom-clause construction (`build_msh` in the paper's Figure 1).
//!
//! Given a seed example `e`, the most-specific clause ⊥e is built by
//! *saturation*: starting from the head's input terms, repeatedly query each
//! body-mode predicate against the background knowledge (up to `recall`
//! solutions per input instantiation), variablizing shared ground terms by
//! `(term, type)` identity. Literals discovered at variable depth `d` may
//! only consume terms produced at depths `< d`, which gives ⊥e's body a
//! producer-before-consumer order — the property the refinement operator
//! relies on (see `refine.rs`).

use crate::modes::{ModeArg, ModeSet};
use crate::settings::Settings;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::prover::Prover;
use p2mdie_logic::symbol::SymbolId;
use p2mdie_logic::term::{Term, VarId};
use p2mdie_logic::wire::{DecodeError, Wire};
use std::collections::HashMap;
use std::collections::HashSet;

/// Hard cap on input-instantiation combinations tried per mode per depth;
/// protects saturation from cartesian blow-ups on very wide types.
const MAX_COMBOS_PER_MODE: usize = 1024;

/// One body literal of a bottom clause, with its dataflow role.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BottomLiteral {
    /// The (variablized) literal.
    pub lit: Literal,
    /// Variables appearing at `+` slots — must be bound before this literal
    /// can join a rule.
    pub inputs: Vec<VarId>,
    /// Variables appearing at `-` slots — become available once it joins.
    pub outputs: Vec<VarId>,
    /// The saturation depth at which the literal was generated.
    pub depth: u32,
}
p2mdie_logic::wire_struct!(BottomLiteral {
    lit,
    inputs,
    outputs,
    depth
});

/// The most-specific clause ⊥e for a seed example.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BottomClause {
    /// Variablized head (e.g. `active(A)` for seed `active(m7)`).
    pub head: Literal,
    /// Variables of the head (available to body literals from the start).
    pub head_vars: Vec<VarId>,
    /// Body literals in generation (producer-before-consumer) order.
    pub lits: Vec<BottomLiteral>,
    /// Number of distinct variables in the clause.
    pub num_vars: u32,
    /// The ground seed example the clause was saturated from.
    pub example: Literal,
    /// Inference steps spent on saturation queries (virtual-time fuel).
    /// Rank-local accounting: not shipped, 0 on a clause that arrived over
    /// the wire.
    pub steps: u64,
}

/// Every field but `steps`, in order.
impl Wire for BottomClause {
    fn encode(&self, out: &mut Vec<u8>) {
        self.head.encode(out);
        self.head_vars.encode(out);
        self.lits.encode(out);
        self.num_vars.encode(out);
        self.example.encode(out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(BottomClause {
            head: Wire::decode(inp)?,
            head_vars: Wire::decode(inp)?,
            lits: Wire::decode(inp)?,
            num_vars: Wire::decode(inp)?,
            example: Wire::decode(inp)?,
            steps: 0,
        })
    }
}

impl BottomClause {
    /// The full most-specific clause as a [`Clause`].
    pub fn to_clause(&self) -> Clause {
        Clause::new(
            self.head.clone(),
            self.lits.iter().map(|b| b.lit.clone()).collect(),
        )
    }

    /// Body size of ⊥e.
    pub fn body_len(&self) -> usize {
        self.lits.len()
    }
}

/// Saturation state: maps ground `(term, type)` pairs to variables and
/// tracks which terms of each type are available as inputs.
struct Saturator<'a> {
    settings: &'a Settings,
    var_map: HashMap<(Term, SymbolId), VarId>,
    next_var: VarId,
    /// Terms available as inputs, per type, in discovery order.
    in_terms: HashMap<SymbolId, Vec<Term>>,
    in_terms_seen: HashSet<(Term, SymbolId)>,
    steps: u64,
}

impl Saturator<'_> {
    fn var_for(&mut self, term: &Term, ty: SymbolId) -> VarId {
        if let Some(&v) = self.var_map.get(&(term.clone(), ty)) {
            return v;
        }
        let v = self.next_var;
        self.next_var += 1;
        self.var_map.insert((term.clone(), ty), v);
        v
    }

    fn add_in_term(&mut self, term: &Term, ty: SymbolId, fresh: &mut Vec<(Term, SymbolId)>) {
        if self.in_terms_seen.insert((term.clone(), ty)) {
            fresh.push((term.clone(), ty));
        }
    }

    fn commit_fresh(&mut self, fresh: Vec<(Term, SymbolId)>) {
        for (t, ty) in fresh {
            self.in_terms.entry(ty).or_default().push(t);
        }
    }
}

/// Builds the bottom clause ⊥e for `example` (paper Fig. 1, step 5).
///
/// Returns `None` when the example does not match the head mode (wrong
/// predicate, arity, or a `#` slot the example contradicts — the last case
/// cannot occur since `#` head slots take the example's constant verbatim).
pub fn saturate(
    kb: &KnowledgeBase,
    modes: &ModeSet,
    settings: &Settings,
    example: &Literal,
) -> Option<BottomClause> {
    let hm = &modes.head;
    if example.pred != hm.pred || example.args.len() != hm.args.len() || !example.is_ground() {
        return None;
    }

    let mut sat = Saturator {
        settings,
        var_map: HashMap::new(),
        next_var: 0,
        in_terms: HashMap::new(),
        in_terms_seen: HashSet::new(),
        steps: 0,
    };

    // Head: variablize +/- slots, keep # slots ground. Both + and - head
    // terms seed the input pool (a head output is produced "for free" by
    // the example itself).
    let mut head_args = Vec::with_capacity(hm.args.len());
    let mut head_vars = Vec::new();
    let mut fresh = Vec::new();
    for (slot, ground) in hm.args.iter().zip(example.args.iter()) {
        match slot {
            ModeArg::Input(t) | ModeArg::Output(t) => {
                let v = sat.var_for(ground, *t);
                head_vars.push(v);
                head_args.push(Term::Var(v));
                sat.add_in_term(ground, *t, &mut fresh);
            }
            ModeArg::Const(_) => head_args.push(ground.clone()),
        }
    }
    sat.commit_fresh(fresh);
    let head = Literal::new(hm.pred, head_args);

    let mut lits: Vec<BottomLiteral> = Vec::new();
    let mut body_seen: HashSet<Literal> = HashSet::new();
    let prover = Prover::new(kb, settings.proof);
    // One binding store shared by every saturation query (cleared per call).
    let mut scratch = p2mdie_logic::subst::Bindings::new();

    'depths: for depth in 1..=settings.max_var_depth {
        // Freeze availability: literals at this depth consume only terms
        // discovered at previous depths.
        let available: HashMap<SymbolId, Vec<Term>> = sat.in_terms.clone();
        let mut fresh: Vec<(Term, SymbolId)> = Vec::new();

        for mode in &modes.body {
            // Gather candidate ground terms for each + slot.
            let input_slots: Vec<(usize, SymbolId)> = mode
                .args
                .iter()
                .enumerate()
                .filter_map(|(i, a)| match a {
                    ModeArg::Input(t) => Some((i, *t)),
                    _ => None,
                })
                .collect();
            let candidates: Vec<&[Term]> = input_slots
                .iter()
                .map(|(_, t)| available.get(t).map(|v| v.as_slice()).unwrap_or(&[]))
                .collect();
            if candidates.iter().any(|c| c.is_empty()) && !input_slots.is_empty() {
                continue;
            }

            let total: usize = candidates.iter().map(|c| c.len()).product();
            let combos = total.min(MAX_COMBOS_PER_MODE);

            for combo in 0..combos {
                // Decode the mixed-radix combination index into one ground
                // term per + slot.
                let mut pick = Vec::with_capacity(input_slots.len());
                let mut rem = combo;
                for c in &candidates {
                    pick.push(&c[rem % c.len()]);
                    rem /= c.len();
                }

                // Build the saturation query: + slots ground, -/# slots are
                // fresh query variables.
                let mut qargs = Vec::with_capacity(mode.args.len());
                let mut qvar: VarId = 0;
                let mut in_pos = 0;
                for a in &mode.args {
                    match a {
                        ModeArg::Input(_) => {
                            qargs.push(pick[in_pos].clone());
                            in_pos += 1;
                        }
                        ModeArg::Output(_) | ModeArg::Const(_) => {
                            qargs.push(Term::Var(qvar));
                            qvar += 1;
                        }
                    }
                }
                let query = kb.compile_query(Literal::new(mode.pred, qargs));
                let (solutions, pstats) =
                    prover.solutions_compiled_reusing(&query, mode.recall as usize, &mut scratch);
                sat.steps += pstats.steps;

                for sol in solutions {
                    // Variablize the solution according to the mode.
                    let mut args = Vec::with_capacity(mode.args.len());
                    let mut inputs = Vec::new();
                    let mut outputs = Vec::new();
                    for (slot, ground) in mode.args.iter().zip(sol.args.iter()) {
                        match slot {
                            ModeArg::Input(t) => {
                                let v = sat.var_for(ground, *t);
                                inputs.push(v);
                                args.push(Term::Var(v));
                            }
                            ModeArg::Output(t) => {
                                let v = sat.var_for(ground, *t);
                                outputs.push(v);
                                args.push(Term::Var(v));
                                sat.add_in_term(ground, *t, &mut fresh);
                            }
                            ModeArg::Const(_) => args.push(ground.clone()),
                        }
                    }
                    let lit = Literal::new(mode.pred, args);
                    if body_seen.insert(lit.clone()) {
                        lits.push(BottomLiteral {
                            lit,
                            inputs,
                            outputs,
                            depth,
                        });
                        if lits.len() >= sat.settings.max_bottom_literals {
                            break 'depths;
                        }
                    }
                }
            }
        }
        sat.commit_fresh(fresh);
    }

    Some(BottomClause {
        head,
        head_vars,
        lits,
        num_vars: sat.next_var,
        example: example.clone(),
        steps: sat.steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2mdie_logic::symbol::SymbolTable;

    /// A two-molecule toy world: m1 has a nitrogen double-bonded pair,
    /// m2 is all-carbon.
    fn toy() -> (SymbolTable, KnowledgeBase, ModeSet) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        let c = |n: &str| Term::Sym(t.intern(n));
        let atm = t.intern("atm");
        let bond = t.intern("bond");
        // atm(Mol, Atom, Elem)
        for (m, a, e) in [
            ("m1", "a1", "n"),
            ("m1", "a2", "c"),
            ("m2", "b1", "c"),
            ("m2", "b2", "c"),
        ] {
            kb.assert_fact(Literal::new(atm, vec![c(m), c(a), c(e)]));
        }
        // bond(Mol, A, B, Type)
        kb.assert_fact(Literal::new(
            bond,
            vec![c("m1"), c("a1"), c("a2"), Term::Int(2)],
        ));
        kb.assert_fact(Literal::new(
            bond,
            vec![c("m2"), c("b1"), c("b2"), Term::Int(1)],
        ));
        let modes = ModeSet::parse(
            &t,
            "active(+mol)",
            &[
                (4, "atm(+mol, -atom, #elem)"),
                (4, "bond(+mol, +atom, -atom, #bondtype)"),
            ],
        )
        .expect("toy mode declarations parse");
        (t, kb, modes)
    }

    #[test]
    fn saturates_seed_molecule() {
        let (t, kb, modes) = toy();
        let s = Settings::default();
        let e = Literal::new(t.intern("active"), vec![Term::Sym(t.intern("m1"))]);
        let b = saturate(&kb, &modes, &s, &e).expect("seed matches the head mode");
        // Head is variablized.
        assert_eq!(b.head.args.len(), 1);
        assert!(matches!(b.head.args[0], Term::Var(0)));
        // Body: atm(m1,a1,n), atm(m1,a2,c) at depth 1; bonds at depth 2
        // (atoms only become available after depth 1).
        let atm_count = b
            .lits
            .iter()
            .filter(|l| l.lit.pred == t.intern("atm"))
            .count();
        let bond_count = b
            .lits
            .iter()
            .filter(|l| l.lit.pred == t.intern("bond"))
            .count();
        assert_eq!(atm_count, 2);
        assert_eq!(bond_count, 1, "only m1's bond should appear");
        assert!(b.steps > 0);
        // Producer-before-consumer: every input var of every literal is
        // defined by the head or an earlier literal's output.
        let mut defined: Vec<VarId> = b.head_vars.clone();
        for l in &b.lits {
            for v in &l.inputs {
                assert!(defined.contains(v), "input var {v} used before defined");
            }
            defined.extend(&l.outputs);
        }
    }

    #[test]
    fn hash_slots_stay_ground() {
        let (t, kb, modes) = toy();
        let s = Settings::default();
        let e = Literal::new(t.intern("active"), vec![Term::Sym(t.intern("m1"))]);
        let b = saturate(&kb, &modes, &s, &e).expect("seed matches the head mode");
        for l in &b.lits {
            if l.lit.pred == t.intern("atm") {
                assert!(l.lit.args[2].is_constant(), "elem slot must stay ground");
            }
        }
    }

    #[test]
    fn wrong_predicate_returns_none() {
        let (t, kb, modes) = toy();
        let s = Settings::default();
        let e = Literal::new(t.intern("inactive"), vec![Term::Sym(t.intern("m1"))]);
        assert!(saturate(&kb, &modes, &s, &e).is_none());
    }

    #[test]
    fn depth_one_has_no_bonds() {
        let (t, kb, modes) = toy();
        let s = Settings {
            max_var_depth: 1,
            ..Settings::default()
        };
        let e = Literal::new(t.intern("active"), vec![Term::Sym(t.intern("m1"))]);
        let b = saturate(&kb, &modes, &s, &e).expect("seed matches the head mode");
        assert!(b.lits.iter().all(|l| l.lit.pred != t.intern("bond")));
    }

    #[test]
    fn bottom_cap_is_respected() {
        let (t, kb, modes) = toy();
        let s = Settings {
            max_bottom_literals: 1,
            ..Settings::default()
        };
        let e = Literal::new(t.intern("active"), vec![Term::Sym(t.intern("m1"))]);
        let b = saturate(&kb, &modes, &s, &e).expect("seed matches the head mode");
        assert_eq!(b.lits.len(), 1);
    }

    #[test]
    fn shared_terms_share_variables() {
        let (t, kb, modes) = toy();
        let s = Settings::default();
        let e = Literal::new(t.intern("active"), vec![Term::Sym(t.intern("m1"))]);
        let b = saturate(&kb, &modes, &s, &e).expect("seed matches the head mode");
        // The atom a1 appears both as atm output and bond input: same var.
        let atm_a1_var = b
            .lits
            .iter()
            .find(|l| l.lit.pred == t.intern("atm") && l.lit.args[2] == Term::Sym(t.intern("n")))
            .and_then(|l| l.outputs.first().copied())
            .expect("the nitrogen atm literal has an output var");
        let bond_in = b
            .lits
            .iter()
            .find(|l| l.lit.pred == t.intern("bond"))
            .map(|l| l.inputs[1])
            .expect("the bond literal was saturated");
        assert_eq!(atm_a1_var, bond_in);
    }
}
