//! Serialized snapshots of a compiled [`KnowledgeBase`].
//!
//! The paper's workers all hold the background knowledge locally and pay
//! its startup cost once per rank. A [`KbSnapshot`] makes that startup
//! near-instant: it captures every *compiled* artifact of a KB — the
//! symbol dictionary, the [`crate::arena::TermArena`] contents, the
//! columnar fact tuples, the per-position posting lists, and the compiled
//! rule tables — so a restore performs **no re-interning of fact
//! arguments and no index rebuilding**. The master builds the KB once,
//! snapshots it, and ships the bytes; a worker (thread today, process
//! tomorrow) reconstructs an identical KB from the snapshot alone.
//!
//! # Format
//!
//! A snapshot is plain data (no maps, no shared handles):
//!
//! * `symbols` — every interned name of the source symbol table, in id
//!   order. Restoring into a **fresh** table reproduces the exact ids;
//!   restoring into a table that already interned other names triggers the
//!   (slower, still index-preserving) symbol-remap path.
//! * `terms` — the arena's ground terms in [`TermId`] order. Only the
//!   reverse `Term -> TermId` hash is rebuilt on load (one insert per
//!   *distinct* term, not one per fact-argument occurrence).
//! * `preds` — one [`PredSnapshot`] per dense [`PredId`], in id order
//!   (compiled rule bodies embed `PredId`s, so the order is load-bearing):
//!   the fact count plus the *irregular* rows only (facts with a
//!   non-ground argument; every other row **is** its `TermId` column
//!   cells), the full-arity `TermId` stripes as **one flat position-major
//!   run** (`arity × num_facts` cells, adopted zero-copy as the in-memory
//!   stripe buffer), posting lists in **CSR form** ([`PostingSnapshot`]:
//!   ascending key run + offset run + one contiguous fact-index array,
//!   adopted directly as the in-memory CSR — `None` = index pruned via
//!   [`KnowledgeBase::retain_indexes`]), per-position unindexable fact
//!   lists, and the [`CompiledClause`] rules with their resolved
//!   [`LitKind`] dispatch (builtins travel as stable byte codes, see
//!   [`crate::builtins::Builtin`]'s wire table).
//!
//! The flat-stripe and CSR shapes replaced the per-position column vectors
//! and sorted `(TermId, Vec<u32>)` posting pairs of protocol version 3;
//! the cluster crate's `net::PROTOCOL_VERSION` was bumped to 4 with the change
//! (the wire encoding is not cross-version compatible).
//!
//! A restore materializes **no** row literals — the loaded KB holds exactly
//! the snapshot's columns plus the irregular side rows, as the KB it was
//! taken from does — and the prover unifies straight against the column
//! cells.
//!
//! [`KnowledgeBase::from_snapshot`] validates the snapshot *structurally* —
//! every id in range, every per-position vector shaped consistently with
//! its fact table, every index list ascending — and returns a
//! [`SnapshotError`] naming the first violated invariant. This guarantees
//! a loaded KB never indexes out of bounds; it does **not** re-derive the
//! index contents (a snapshot whose posting lists disagree with its
//! columns loads and then retrieves accordingly — semantic fidelity is the
//! producer's contract, pinned by the differential proptests in
//! `crates/logic/tests/snapshot_props.rs`, not re-checked per load).
//! The byte-level encoding is the [`Wire`] impls next to each type below
//! (the fields in order; only the `u32` / `TermId` runs are decoded by
//! hand, in bulk), which is also how a snapshot travels as a
//! `Msg::KbSnapshot` protocol message.

use crate::arena::{TermArena, TermId};
use crate::builtins::BuiltinTable;
use crate::clause::{Clause, CompiledClause, CompiledLiteral, LitKind, Literal, PredId, PredKey};
use crate::fxhash::FxHashMap;
use crate::kb::{ColumnStripes, KnowledgeBase, PostingCsr, PredEntry, MAX_INDEXED_ARGS};
use crate::symbol::{SymbolId, SymbolTable};
use crate::term::Term;
use crate::wire::{self, DecodeError, Wire};
use std::fmt;

/// One position's serialized posting list, in the same CSR shape the
/// in-memory store probes: key `keys[k]` owns fact indices
/// `idx[offs[k] .. offs[k + 1]]`. Keys are strictly ascending, `offs` has
/// `keys.len() + 1` entries starting at 0, and each run is ascending — a
/// restore adopts all three arrays without rebuilding anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PostingSnapshot {
    /// Distinct term ids with at least one posting, strictly ascending.
    pub keys: Vec<TermId>,
    /// Run boundaries into `idx`, `keys.len() + 1` entries.
    pub offs: Vec<u32>,
    /// All fact indices, concatenated in key order.
    pub idx: Vec<u32>,
}

/// Bulk-decodes a counted run of `u32` cells with one bounds check for the
/// whole run. Byte-identical to `Vec::<u32>::decode`; columns and posting
/// lists are the bulk of a snapshot's bytes, and the per-element check is
/// measurable at that volume.
fn decode_u32_run<T>(inp: &mut &[u8], cell: fn(u32) -> T) -> Result<Vec<T>, DecodeError> {
    let n = u32::decode(inp)? as usize;
    let raw = wire::take(inp, n.saturating_mul(4), "u32 run length")?;
    Ok(raw
        .chunks_exact(4)
        .map(|c| cell(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
        .collect())
}

/// Three counted runs, decoded in bulk. (Validation — ascending keys,
/// consistent offsets, in-bounds runs — happens in
/// [`KnowledgeBase::from_snapshot`], not here.)
impl Wire for PostingSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.keys.encode(out);
        self.offs.encode(out);
        self.idx.encode(out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(PostingSnapshot {
            keys: decode_u32_run(inp, TermId)?,
            offs: decode_u32_run(inp, |i| i)?,
            idx: decode_u32_run(inp, |i| i)?,
        })
    }
}

/// A serializable snapshot of one compiled knowledge base.
#[derive(Clone, Debug, PartialEq)]
pub struct KbSnapshot {
    /// Every name of the source symbol table, in [`SymbolId`] order.
    pub symbols: Vec<String>,
    /// The term arena's contents, in [`TermId`] order.
    pub terms: Vec<Term>,
    /// Per-predicate stores, in [`PredId`] order.
    pub preds: Vec<PredSnapshot>,
}
crate::wire_struct!(KbSnapshot {
    symbols,
    terms,
    preds
});

/// One predicate's serialized store (facts, indexes, compiled rules).
///
/// Fact *rows* are not stored when they are derivable: a fact whose every
/// argument is ground is exactly its `TermId` column cells (all positions
/// have columns), so neither the snapshot nor the restored KB holds a row
/// for it. Only "irregular" rows — a non-ground argument the arena cannot
/// intern — travel as full literals. This roughly halves snapshot bytes on
/// ground-heavy ILP background knowledge and is most of the snapshot-load
/// speedup.
#[derive(Clone, Debug, PartialEq)]
pub struct PredSnapshot {
    /// The `(predicate, arity)` key this entry indexes.
    pub key: PredKey,
    /// Total number of facts (row `f` **is** `cols[·][f]` unless listed in
    /// `irregular`).
    pub num_facts: u32,
    /// `(fact index, row)` for rows with a non-ground argument, index-
    /// ascending.
    pub irregular: Vec<(u32, Literal)>,
    /// Columnar view as one flat position-major run of `arity × num_facts`
    /// cells: `cols[p * num_facts + f]` is fact `f`'s argument `p` as an
    /// interned id ([`TermId::NONE`] for a non-ground argument). Exactly
    /// the compacted in-memory stripe buffer, adopted zero-copy on load.
    pub cols: Vec<TermId>,
    /// Posting lists per indexed position, in CSR form; `None` = index
    /// pruned.
    pub postings: Vec<Option<PostingSnapshot>>,
    /// Per indexed position: ascending indices of facts whose argument
    /// there is not ground (they match any probe).
    pub unindexed: Vec<Vec<u32>>,
    /// Compiled rules with resolved dispatch, in assertion order.
    pub rules: Vec<CompiledClause>,
}

/// The fields in order; written out because `cols` decodes in bulk.
impl Wire for PredSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.num_facts.encode(out);
        self.irregular.encode(out);
        self.cols.encode(out);
        self.postings.encode(out);
        self.unindexed.encode(out);
        self.rules.encode(out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(PredSnapshot {
            key: Wire::decode(inp)?,
            num_facts: Wire::decode(inp)?,
            irregular: Wire::decode(inp)?,
            cols: decode_u32_run(inp, TermId)?,
            postings: Wire::decode(inp)?,
            unindexed: Wire::decode(inp)?,
            rules: Wire::decode(inp)?,
        })
    }
}

/// A snapshot failed structural validation on load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError {
    /// The first invariant found violated.
    pub context: &'static str,
}

impl SnapshotError {
    fn new(context: &'static str) -> Self {
        SnapshotError { context }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid KB snapshot: {}", self.context)
    }
}

impl std::error::Error for SnapshotError {}

/// Checks every symbol id inside `t` against the snapshot dictionary size.
fn check_term_syms(t: &Term, nsyms: usize) -> Result<(), SnapshotError> {
    match t {
        Term::Var(_) | Term::Int(_) | Term::Float(_) => Ok(()),
        Term::Sym(s) => (s.index() < nsyms)
            .then_some(())
            .ok_or_else(|| SnapshotError::new("symbol id out of range")),
        Term::App(f, args) => {
            if f.index() >= nsyms {
                return Err(SnapshotError::new("symbol id out of range"));
            }
            args.iter().try_for_each(|a| check_term_syms(a, nsyms))
        }
    }
}

/// Rewrites every symbol id inside `t` through `remap` (the slow path when
/// the target table already held other names).
fn remap_term(t: &Term, remap: &[SymbolId]) -> Term {
    match t {
        Term::Var(_) | Term::Int(_) | Term::Float(_) => t.clone(),
        Term::Sym(s) => Term::Sym(remap[s.index()]),
        Term::App(f, args) => Term::App(
            remap[f.index()],
            args.iter().map(|a| remap_term(a, remap)).collect(),
        ),
    }
}

fn check_literal_syms(l: &Literal, nsyms: usize) -> Result<(), SnapshotError> {
    if l.pred.index() >= nsyms {
        return Err(SnapshotError::new("symbol id out of range"));
    }
    l.args.iter().try_for_each(|a| check_term_syms(a, nsyms))
}

fn remap_literal(l: &Literal, remap: &[SymbolId]) -> Literal {
    Literal {
        pred: remap[l.pred.index()],
        args: l.args.iter().map(|a| remap_term(a, remap)).collect(),
    }
}

/// True when `idx` is strictly ascending and every element is `< bound`.
fn ascending_in_bounds(idx: &[u32], bound: usize) -> bool {
    idx.iter().all(|&i| (i as usize) < bound) && idx.windows(2).all(|w| w[0] < w[1])
}

impl KnowledgeBase {
    /// Captures this KB as a serializable [`KbSnapshot`].
    ///
    /// The snapshot is self-contained (it embeds the symbol dictionary) and
    /// canonical: two byte-encodings of the same KB are identical, because
    /// posting lists are emitted sorted by term id.
    pub fn to_snapshot(&self) -> KbSnapshot {
        let symbols = self
            .symbols()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let terms = self.arena().terms().to_vec();
        let preds = self
            .keys
            .iter()
            .zip(self.entries.iter())
            .map(|(key, e)| PredSnapshot {
                key: *key,
                num_facts: e.len,
                irregular: e.irregular.clone(),
                cols: e.cols.compact_data(),
                postings: e
                    .postings
                    .iter()
                    .map(|p| {
                        p.as_ref().map(|csr| {
                            let (keys, offs, idx) = csr.merged_parts();
                            PostingSnapshot { keys, offs, idx }
                        })
                    })
                    .collect(),
                unindexed: e.unindexed.clone(),
                rules: e.crules.clone(),
            })
            .collect();
        KbSnapshot {
            symbols,
            terms,
            preds,
        }
    }

    /// Reconstructs a KB from a snapshot, interning the snapshot's symbol
    /// dictionary into `syms`.
    ///
    /// When the resulting ids match the snapshot's (always the case for a
    /// fresh table, or for the very table the snapshot was captured from),
    /// the stored terms, facts, and rules are adopted as-is; otherwise every
    /// symbol id is remapped — still without re-interning fact arguments or
    /// rebuilding posting lists, since [`TermId`]s and fact indices are
    /// arena-local and unaffected by symbol renumbering.
    pub fn from_snapshot(snap: KbSnapshot, syms: SymbolTable) -> Result<Self, SnapshotError> {
        let nsyms = snap.symbols.len();
        let remap: Vec<SymbolId> = syms.intern_all(&snap.symbols);
        let identity = remap.iter().enumerate().all(|(i, s)| s.index() == i);

        // Arena: validate symbol ids, remap if needed, rebuild only the
        // reverse map.
        for t in &snap.terms {
            check_term_syms(t, nsyms)?;
        }
        let terms = if identity {
            snap.terms
        } else {
            snap.terms.iter().map(|t| remap_term(t, &remap)).collect()
        };
        let arena = TermArena::from_terms(terms).map_err(SnapshotError::new)?;
        let nterms = arena.len();
        let npreds = snap.preds.len();

        let mut pred_index = FxHashMap::default();
        let mut keys = Vec::with_capacity(npreds);
        let mut entries = Vec::with_capacity(npreds);
        let mut num_facts = 0usize;
        let mut num_rules = 0usize;

        for (pi, p) in snap.preds.into_iter().enumerate() {
            if p.key.pred.index() >= nsyms {
                return Err(SnapshotError::new("symbol id out of range"));
            }
            let key = PredKey {
                pred: remap[p.key.pred.index()],
                arity: p.key.arity,
            };
            if pred_index.insert(key, PredId(pi as u32)).is_some() {
                return Err(SnapshotError::new("duplicate predicate key"));
            }
            keys.push(key);

            let arity = key.arity as usize;
            let indexed = arity.min(MAX_INDEXED_ARGS);
            if p.postings.len() != indexed || p.unindexed.len() != indexed {
                return Err(SnapshotError::new("per-position vector shape"));
            }
            let nfacts = p.num_facts as usize;

            if p.cols.len() != arity * nfacts {
                return Err(SnapshotError::new("column length"));
            }
            if !p.cols.iter().all(|t| t.is_none() || t.index() < nterms) {
                return Err(SnapshotError::new("term id out of range"));
            }

            // Rows: irregular ones travel as literals; every other row *is*
            // its column cells — nothing is materialized here, the restored
            // KB unifies straight against the columns.
            for (f, lit) in &p.irregular {
                if (*f as usize) >= nfacts {
                    return Err(SnapshotError::new("irregular fact index"));
                }
                check_literal_syms(lit, nsyms)?;
                if lit.pred != p.key.pred || lit.args.len() != arity {
                    return Err(SnapshotError::new("fact under a foreign key"));
                }
            }
            if !p.irregular.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(SnapshotError::new("irregular fact index"));
            }
            // A non-interned cell is only legal for a row whose original
            // literal travels in `irregular` (otherwise the row could be
            // neither unified nor rebuilt). Stripes are position-major, so
            // fact `f`'s cells sit at `f`, `f + nfacts`, `f + 2·nfacts`, …
            for (i, tid) in p.cols.iter().enumerate() {
                if tid.is_none() {
                    let f = (i % nfacts.max(1)) as u32;
                    if p.irregular.binary_search_by_key(&f, |(i, _)| *i).is_err() {
                        return Err(SnapshotError::new("missing irregular row"));
                    }
                }
            }
            let irregular: Vec<(u32, Literal)> = if identity {
                p.irregular
            } else {
                p.irregular
                    .iter()
                    .map(|(f, lit)| (*f, remap_literal(lit, &remap)))
                    .collect()
            };
            let mut postings = Vec::with_capacity(indexed);
            for (pos, posting) in p.postings.into_iter().enumerate() {
                match posting {
                    None if pos == 0 => {
                        return Err(SnapshotError::new("position 0 index pruned"));
                    }
                    None => postings.push(None),
                    Some(ps) => {
                        if !ps.keys.iter().all(|t| !t.is_none() && t.index() < nterms) {
                            return Err(SnapshotError::new("posting term id"));
                        }
                        if ps.keys.windows(2).any(|w| w[0] == w[1]) {
                            return Err(SnapshotError::new("duplicate posting key"));
                        }
                        if !ps.keys.windows(2).all(|w| w[0] < w[1]) {
                            return Err(SnapshotError::new("posting key order"));
                        }
                        let offs_ok = ps.offs.len() == ps.keys.len() + 1
                            && ps.offs.first() == Some(&0)
                            && ps.offs.windows(2).all(|w| w[0] <= w[1])
                            && ps.offs.last() == Some(&(ps.idx.len() as u32));
                        if !offs_ok {
                            return Err(SnapshotError::new("posting run offsets"));
                        }
                        let runs_ok = ps.offs.windows(2).all(|w| {
                            ascending_in_bounds(&ps.idx[w[0] as usize..w[1] as usize], nfacts)
                        });
                        if !runs_ok {
                            return Err(SnapshotError::new("posting fact indices"));
                        }
                        postings.push(Some(PostingCsr::from_parts(ps.keys, ps.offs, ps.idx)));
                    }
                }
            }
            for idx in &p.unindexed {
                if !ascending_in_bounds(idx, nfacts) {
                    return Err(SnapshotError::new("unindexed fact indices"));
                }
            }

            let mut rules = Vec::with_capacity(p.rules.len());
            let mut crules = Vec::with_capacity(p.rules.len());
            for r in &p.rules {
                check_literal_syms(&r.head, nsyms)?;
                let head = if identity {
                    r.head.clone()
                } else {
                    remap_literal(&r.head, &remap)
                };
                let mut body = Vec::with_capacity(r.body.len());
                for cl in r.body.iter() {
                    check_literal_syms(&cl.lit, nsyms)?;
                    if let LitKind::Pred(id) = cl.kind {
                        if id.index() >= npreds {
                            return Err(SnapshotError::new("rule body pred id"));
                        }
                    }
                    body.push(CompiledLiteral {
                        lit: if identity {
                            cl.lit.clone()
                        } else {
                            remap_literal(&cl.lit, &remap)
                        },
                        kind: cl.kind,
                    });
                }
                let plain = Clause::new(head, body.iter().map(|l| l.lit.clone()).collect());
                if plain.var_span() != r.var_span {
                    return Err(SnapshotError::new("rule variable span"));
                }
                // Stored renumbered, as `assert_rule` stores it.
                let plain = plain.dense().into_owned();
                for (cl, lit) in body.iter_mut().zip(&plain.body) {
                    cl.lit.clone_from(lit);
                }
                crules.push(CompiledClause {
                    head: plain.head.clone(),
                    body: body.into_boxed_slice(),
                    var_span: plain.var_span(),
                });
                rules.push(plain);
            }

            num_facts += nfacts;
            num_rules += rules.len();
            entries.push(PredEntry {
                len: p.num_facts,
                cols: ColumnStripes::from_compact(arity, p.num_facts, p.cols),
                irregular,
                postings,
                unindexed: p.unindexed,
                rules,
                crules,
            });
        }

        let builtins = BuiltinTable::new(&syms);
        Ok(KnowledgeBase {
            syms,
            builtins,
            arena,
            pred_index,
            keys,
            entries,
            num_facts,
            num_rules,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(t: &SymbolTable, name: &str, args: Vec<Term>) -> Literal {
        Literal::new(t.intern(name), args)
    }

    fn sample_kb() -> (SymbolTable, KnowledgeBase) {
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for m in 0..4i64 {
            for a in 0..6i64 {
                kb.assert_fact(lit(
                    &t,
                    "bond",
                    vec![Term::Int(m), Term::Int(10 * m + a), Term::Int(a % 3)],
                ));
            }
        }
        kb.assert_fact(lit(
            &t,
            "charge",
            vec![
                Term::app(t.intern("q"), vec![Term::Int(3)]),
                Term::Float(crate::term::F64(0.5)),
            ],
        ));
        kb.assert_rule(Clause::new(
            lit(&t, "linked", vec![Term::Var(0), Term::Var(1)]),
            vec![
                lit(&t, "bond", vec![Term::Var(0), Term::Var(1), Term::Var(2)]),
                lit(&t, ">=", vec![Term::Var(2), Term::Int(1)]),
            ],
        ));
        kb.optimize();
        (t, kb)
    }

    #[test]
    fn roundtrip_into_fresh_table_is_identical() {
        let (t, kb) = sample_kb();
        let snap = kb.to_snapshot();
        let restored = KnowledgeBase::from_snapshot(snap.clone(), SymbolTable::new()).unwrap();
        // The fresh table reproduces the ids, so a re-capture is identical.
        assert_eq!(restored.to_snapshot(), snap);
        assert_eq!(restored.num_facts(), kb.num_facts());
        assert_eq!(restored.num_rules(), kb.num_rules());
        assert_eq!(restored.arena().len(), kb.arena().len());
        // Same plans, same candidates.
        let key = lit(&t, "bond", vec![Term::Int(0); 3]).key();
        let bound = vec![None, Some(Term::Int(12)), None];
        assert_eq!(
            restored.plan_candidates(key, &bound),
            kb.plan_candidates(key, &bound)
        );
    }

    #[test]
    fn roundtrip_into_shared_table_is_identical() {
        let (t, kb) = sample_kb();
        let snap = kb.to_snapshot();
        let restored = KnowledgeBase::from_snapshot(snap.clone(), t).unwrap();
        assert_eq!(restored.to_snapshot(), snap);
    }

    #[test]
    fn remap_path_preserves_semantics() {
        let (t, kb) = sample_kb();
        let snap = kb.to_snapshot();
        // A table with alien symbols interned first forces non-identity ids.
        let other = SymbolTable::new();
        other.intern("alien0");
        other.intern("alien1");
        let restored = KnowledgeBase::from_snapshot(snap, other.clone()).unwrap();
        assert_eq!(restored.num_facts(), kb.num_facts());
        let key = Literal::new(other.lookup("bond").unwrap(), vec![Term::Int(0); 3]).key();
        let (tried, total) = restored.plan_candidates(key, &[Some(Term::Int(2)), None, None]);
        assert_eq!(total, 6);
        assert_eq!(tried.len(), 6);
        // Rules survived the remap with dispatch intact.
        let lkey = Literal::new(
            other.lookup("linked").unwrap(),
            vec![Term::Int(0), Term::Int(0)],
        )
        .key();
        assert_eq!(restored.rules_for(lkey).len(), 1);
        let crule = &restored.rules_compiled(restored.pred_id(lkey).unwrap())[0];
        assert!(matches!(crule.body[1].kind, LitKind::Builtin(_)));
        // And `t`'s names still resolve through the remapped table.
        assert_eq!(&*t.name(t.lookup("bond").unwrap()), "bond");
    }

    /// A snapshot rule naming huge variable ids is restored renumbered, as
    /// `assert_rule` stores it, and proves what the original proves.
    #[test]
    fn sparse_rule_variables_are_renumbered_on_restore() {
        let (t, kb) = sample_kb();
        let mut snap = kb.to_snapshot();
        let last = snap.preds.len() - 1;
        let rule = &mut snap.preds[last].rules[0];
        let spread =
            |l: &Literal| l.map_vars(&mut |v| Term::Var([7, 2_000_000_000, u32::MAX][v as usize]));
        rule.head = spread(&rule.head);
        for cl in rule.body.iter_mut() {
            cl.lit = spread(&cl.lit);
        }
        rule.var_span = u32::MAX;
        let restored = KnowledgeBase::from_snapshot(snap, t.clone()).unwrap();
        let key = lit(&t, "linked", vec![Term::Int(0); 2]).key();
        let crule = &restored.rules_compiled(restored.pred_id(key).unwrap())[0];
        assert_eq!(crule.var_span, 3);
        assert_eq!(restored.rules_for(key)[0].var_span(), 3);
        let goal = lit(&t, "linked", vec![Term::Int(2), Term::Var(0)]);
        let limits = crate::prover::ProofLimits::default();
        assert_eq!(
            crate::prover::Prover::new(&restored, limits).solutions(&goal, 10),
            crate::prover::Prover::new(&kb, limits).solutions(&goal, 10)
        );
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let (_t, kb) = sample_kb();
        let base = kb.to_snapshot();

        let mut s = base.clone();
        s.preds[0].cols.push(TermId(0));
        assert_eq!(
            KnowledgeBase::from_snapshot(s, SymbolTable::new())
                .unwrap_err()
                .context,
            "column length"
        );

        let mut s = base.clone();
        // Position 1, fact 0 in the flat position-major stripe run.
        let nfacts = s.preds[0].num_facts as usize;
        s.preds[0].cols[nfacts] = TermId(u32::MAX - 1);
        assert_eq!(
            KnowledgeBase::from_snapshot(s, SymbolTable::new())
                .unwrap_err()
                .context,
            "term id out of range"
        );

        let mut s = base.clone();
        s.preds[0].postings[0] = None;
        assert_eq!(
            KnowledgeBase::from_snapshot(s, SymbolTable::new())
                .unwrap_err()
                .context,
            "position 0 index pruned"
        );

        let mut s = base.clone();
        if let Some(ps) = &mut s.preds[0].postings[0] {
            ps.idx[0] = 9999;
        }
        assert_eq!(
            KnowledgeBase::from_snapshot(s, SymbolTable::new())
                .unwrap_err()
                .context,
            "posting fact indices"
        );

        let mut s = base.clone();
        if let Some(ps) = &mut s.preds[0].postings[0] {
            ps.keys[1] = ps.keys[0];
        }
        assert_eq!(
            KnowledgeBase::from_snapshot(s, SymbolTable::new())
                .unwrap_err()
                .context,
            "duplicate posting key"
        );

        let mut s = base.clone();
        if let Some(ps) = &mut s.preds[0].postings[0] {
            ps.keys.swap(0, 1);
        }
        assert_eq!(
            KnowledgeBase::from_snapshot(s, SymbolTable::new())
                .unwrap_err()
                .context,
            "posting key order"
        );

        let mut s = base.clone();
        if let Some(ps) = &mut s.preds[0].postings[0] {
            ps.offs[0] = 1;
        }
        assert_eq!(
            KnowledgeBase::from_snapshot(s, SymbolTable::new())
                .unwrap_err()
                .context,
            "posting run offsets"
        );

        let mut s = base.clone();
        let dup = s.preds[0].clone();
        s.preds.push(dup);
        assert_eq!(
            KnowledgeBase::from_snapshot(s, SymbolTable::new())
                .unwrap_err()
                .context,
            "duplicate predicate key"
        );

        let mut s = base.clone();
        let last = s.preds.len() - 1;
        s.preds[last].rules[0].var_span = 99;
        assert_eq!(
            KnowledgeBase::from_snapshot(s, SymbolTable::new())
                .unwrap_err()
                .context,
            "rule variable span"
        );

        let mut s = base;
        s.symbols.truncate(3);
        assert!(KnowledgeBase::from_snapshot(s, SymbolTable::new()).is_err());
    }
}
