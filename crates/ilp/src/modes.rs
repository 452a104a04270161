//! Mode declarations (`modeh`/`modeb`), the language bias of MDIE.
//!
//! A mode template like `bond(+mol, +atom, -atom, #bondtype)` declares, per
//! argument: `+type` — input, must be bound to an already-known term of that
//! type; `-type` — output, introduces new terms; `#type` — a ground constant
//! kept literally in learned rules. `recall` bounds how many solutions of
//! the predicate saturation may use per input instantiation (paper §3.1,
//! following Muggleton's Progol).

use p2mdie_logic::clause::PredKey;
use p2mdie_logic::symbol::{SymbolId, SymbolTable};

/// One argument slot of a mode template.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ModeArg {
    /// `+type`: input variable of the given type.
    Input(SymbolId),
    /// `-type`: output variable of the given type.
    Output(SymbolId),
    /// `#type`: ground constant of the given type.
    Const(SymbolId),
}
p2mdie_logic::wire_enum!(ModeArg, "mode arg tag" {
    0 => Input(ty),
    1 => Output(ty),
    2 => Const(ty),
});

impl ModeArg {
    /// The type symbol of this slot.
    pub fn type_sym(self) -> SymbolId {
        match self {
            ModeArg::Input(t) | ModeArg::Output(t) | ModeArg::Const(t) => t,
        }
    }
}

/// A mode declaration: recall bound plus predicate template.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ModeDecl {
    /// Maximum solutions used per input instantiation during saturation.
    pub recall: u32,
    /// Predicate symbol.
    pub pred: SymbolId,
    /// Argument slots.
    pub args: Vec<ModeArg>,
}
p2mdie_logic::wire_struct!(ModeDecl { recall, pred, args });

impl ModeDecl {
    /// Parses a template like `"bond(+mol, +atom, -atom, #bondtype)"`.
    ///
    /// Arity-0 predicates are written without parentheses.
    pub fn parse(syms: &SymbolTable, recall: u32, template: &str) -> Result<ModeDecl, String> {
        let template = template.trim();
        let (name, rest) = match template.find('(') {
            None => {
                if template.is_empty() {
                    return Err("empty mode template".to_owned());
                }
                return Ok(ModeDecl {
                    recall,
                    pred: syms.intern(template),
                    args: vec![],
                });
            }
            Some(i) => (&template[..i], &template[i + 1..]),
        };
        let Some(inner) = rest.strip_suffix(')') else {
            return Err(format!("mode template `{template}` missing ')'"));
        };
        let mut args = Vec::new();
        for raw in inner.split(',') {
            let raw = raw.trim();
            let (marker, ty) = raw.split_at(1);
            let ty = ty.trim();
            if ty.is_empty() {
                return Err(format!("mode arg `{raw}` missing type name"));
            }
            let t = syms.intern(ty);
            args.push(match marker {
                "+" => ModeArg::Input(t),
                "-" => ModeArg::Output(t),
                "#" => ModeArg::Const(t),
                other => {
                    return Err(format!(
                        "mode arg `{raw}` must start with +, - or #, got `{other}`"
                    ))
                }
            });
        }
        if name.is_empty() {
            return Err(format!("mode template `{template}` missing predicate name"));
        }
        Ok(ModeDecl {
            recall,
            pred: syms.intern(name),
            args,
        })
    }

    /// Arity of the declared predicate.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Indices of `+` slots.
    pub fn input_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.args
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, ModeArg::Input(_)))
            .map(|(i, _)| i)
    }
}

/// The complete language bias: one head mode plus body modes.
///
/// Determinations are implicit — every body mode may appear in a rule for
/// the head predicate (April behaves the same when every `modeb` predicate
/// is determined for the target).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ModeSet {
    /// The head (`modeh`) declaration.
    pub head: ModeDecl,
    /// The body (`modeb`) declarations, in declaration order.
    pub body: Vec<ModeDecl>,
}
p2mdie_logic::wire_struct!(ModeSet { head, body });

impl ModeSet {
    /// Creates a mode set with the given head declaration.
    pub fn new(head: ModeDecl) -> Self {
        ModeSet {
            head,
            body: Vec::new(),
        }
    }

    /// Parses and appends a body mode, builder-style.
    pub fn with_body(mut self, syms: &SymbolTable, recall: u32, template: &str) -> Self {
        let decl = ModeDecl::parse(syms, recall, template)
            .unwrap_or_else(|e| panic!("invalid body mode `{template}`: {e}"));
        self.body.push(decl);
        self
    }

    /// Parses a full mode set from a head template and body templates.
    pub fn parse(
        syms: &SymbolTable,
        head_template: &str,
        body_templates: &[(u32, &str)],
    ) -> Result<ModeSet, String> {
        let head = ModeDecl::parse(syms, 1, head_template)?;
        let mut body = Vec::with_capacity(body_templates.len());
        for (recall, t) in body_templates {
            body.push(ModeDecl::parse(syms, *recall, t)?);
        }
        Ok(ModeSet { head, body })
    }

    /// Argument positions that can arrive *bound* in proof goals, per body
    /// predicate (merged across declarations of the same relation). `+`
    /// inputs are bound by dataflow and `#` constants stay ground in
    /// learned rules; a `-` output slot can *also* arrive bound, but only
    /// through a shared variable — saturation shares variables by
    /// `(term, type)` identity, so that requires its type to occur in at
    /// least one other slot of the language bias (e.g. the second `-atom`
    /// of `bond(+mol, -atom, -atom, #ty)` rejoins atoms produced earlier).
    /// Output slots of a type that occurs nowhere else can never be probed;
    /// this is the signal the KB uses to prune their posting-list indexes
    /// (see [`p2mdie_logic::kb::KnowledgeBase::retain_indexes`]).
    pub fn bound_positions(&self) -> Vec<(PredKey, Vec<usize>)> {
        // Type-occurrence census over every slot (head included): an output
        // type seen exactly once can never be shared with another literal.
        let mut type_count: p2mdie_logic::fxhash::FxHashMap<SymbolId, usize> =
            p2mdie_logic::fxhash::FxHashMap::default();
        for a in self
            .head
            .args
            .iter()
            .chain(self.body.iter().flat_map(|m| m.args.iter()))
        {
            *type_count.entry(a.type_sym()).or_insert(0) += 1;
        }
        let mut out: Vec<(PredKey, Vec<usize>)> = Vec::new();
        for m in &self.body {
            let key = PredKey {
                pred: m.pred,
                arity: m.args.len() as u32,
            };
            let positions = m.args.iter().enumerate().filter_map(|(i, a)| match a {
                ModeArg::Input(_) | ModeArg::Const(_) => Some(i),
                ModeArg::Output(t) => (type_count[t] >= 2).then_some(i),
            });
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, ps)) => {
                    for p in positions {
                        if !ps.contains(&p) {
                            ps.push(p);
                        }
                    }
                }
                None => out.push((key, positions.collect())),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_positions_keep_shareable_output_slots() {
        let t = SymbolTable::new();
        let m = ModeSet::parse(
            &t,
            "tgt(+mol)",
            &[
                (1, "bond(+mol, -atom, -atom, #ty)"),
                (1, "lonely(+mol, -unique)"),
            ],
        )
        .unwrap();
        let bp = m.bound_positions();
        let get = |name: &str| {
            bp.iter()
                .find(|(k, _)| k.pred == t.intern(name))
                .map(|(_, ps)| ps.clone())
                .unwrap()
        };
        // `atom` occurs twice, so a bond goal's `-atom` slots can arrive
        // bound through sharing: every position stays indexable.
        assert_eq!(get("bond"), vec![0, 1, 2, 3]);
        // `unique` occurs only in its own slot — no shared variable can
        // ever bind it, so the position is safely prunable.
        assert_eq!(get("lonely"), vec![0]);
    }

    #[test]
    fn parse_full_template() {
        let t = SymbolTable::new();
        let m = ModeDecl::parse(&t, 5, "bond(+mol, +atom, -atom, #bondtype)").unwrap();
        assert_eq!(m.recall, 5);
        assert_eq!(&*t.name(m.pred), "bond");
        assert_eq!(m.arity(), 4);
        assert_eq!(m.args[0], ModeArg::Input(t.intern("mol")));
        assert_eq!(m.args[2], ModeArg::Output(t.intern("atom")));
        assert_eq!(m.args[3], ModeArg::Const(t.intern("bondtype")));
        assert_eq!(m.input_slots().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn parse_arity_zero() {
        let t = SymbolTable::new();
        let m = ModeDecl::parse(&t, 1, "anything").unwrap();
        assert_eq!(m.arity(), 0);
    }

    #[test]
    fn parse_rejects_bad_markers() {
        let t = SymbolTable::new();
        assert!(ModeDecl::parse(&t, 1, "p(?x)").is_err());
        assert!(ModeDecl::parse(&t, 1, "p(+x").is_err());
        assert!(ModeDecl::parse(&t, 1, "(+x)").is_err());
        assert!(ModeDecl::parse(&t, 1, "p(+)").is_err());
    }

    #[test]
    fn mode_set_builder() {
        let t = SymbolTable::new();
        let ms = ModeSet::new(ModeDecl::parse(&t, 1, "active(+mol)").unwrap())
            .with_body(&t, 8, "atm(+mol, -atom, #elem, -charge)")
            .with_body(&t, 4, "bond(+mol, +atom, -atom, #bondtype)");
        assert_eq!(ms.body.len(), 2);
        assert_eq!(ms.head.args.len(), 1);
    }

    #[test]
    fn parse_whole_set() {
        let t = SymbolTable::new();
        let ms = ModeSet::parse(
            &t,
            "active(+mol)",
            &[
                (8, "atm(+mol, -atom, #elem, -charge)"),
                (4, "gteq(+charge, #charge)"),
            ],
        )
        .unwrap();
        assert_eq!(ms.body.len(), 2);
        assert_eq!(ms.head.recall, 1);
    }
}
