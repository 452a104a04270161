//! Golden pin for a saturation that stops at `max_bottom_literals` in the
//! middle of a mode's input combinations.
//!
//! `saturate` issues one query per input combination and leaves the depth
//! loop the moment the literal cap is reached; the steps of the queries
//! already answered are charged, the remaining combinations are never
//! asked. On the first positive of `carcinogenesis(0.3, 2005)` the modes
//! `atmel(+mol, +atom, #elem)` and `gteq_chg(+charge, #lvl)` each have ten
//! combinations at depth 2 (literals 18..28 and 28..42 of the uncapped
//! bottom clause), so a cap of 22 stops after the fourth `atmel`
//! combination and a cap of 35 inside the fifth `gteq_chg` one. Literals and
//! steps were recorded at commit 5da6436; `bottom_cap_is_respected` in
//! `crates/ilp` checks only that the cap is honoured, not what was charged.

use p2mdie::ilp::bottom::saturate;
use p2mdie::ilp::settings::Settings;

/// The first 35 body literals of the seed's bottom clause, in generation
/// order.
const LITERALS: [&str; 35] = [
    "atm(A,B,s,C)",
    "atm(A,D,cl,E)",
    "atm(A,F,h,G)",
    "atm(A,H,c,I)",
    "atm(A,J,s,K)",
    "atm(A,L,c,M)",
    "atm(A,N,n,O)",
    "atm(A,P,h,Q)",
    "atm(A,R,h,S)",
    "atm(A,T,c,U)",
    "bond(A,B,D,1)",
    "bond(A,D,F,2)",
    "bond(A,F,H,1)",
    "bond(A,H,J,1)",
    "bond(A,J,L,1)",
    "bond(A,L,N,2)",
    "bond(A,N,P,1)",
    "bond(A,P,R,1)",
    "atmel(A,B,s)",
    "atmel(A,D,cl)",
    "atmel(A,F,h)",
    "atmel(A,H,c)",
    "atmel(A,J,s)",
    "atmel(A,L,c)",
    "atmel(A,N,n)",
    "atmel(A,P,h)",
    "atmel(A,R,h)",
    "atmel(A,T,c)",
    "gteq_chg(C,0.25)",
    "gteq_chg(C,0.0)",
    "gteq_chg(E,0.0)",
    "gteq_chg(E,-0.25)",
    "gteq_chg(G,0.5)",
    "gteq_chg(G,0.25)",
    "gteq_chg(K,0.0)",
];

#[test]
fn capped_saturation_matches_recorded_literals_and_steps() {
    let ds = p2mdie::datasets::carcinogenesis(0.3, 2005);
    let syms = ds.engine.kb.symbols();
    for (cap, steps) in [(22, 46), (35, 132)] {
        let settings = Settings {
            max_bottom_literals: cap,
            ..ds.engine.settings.clone()
        };
        let bottom = saturate(
            &ds.engine.kb,
            &ds.engine.modes,
            &settings,
            &ds.examples.pos[0],
        )
        .expect("the seed matches the head mode");
        let lits: Vec<String> = bottom
            .lits
            .iter()
            .map(|b| b.lit.display(syms).to_string())
            .collect();
        assert_eq!(lits, LITERALS[..cap], "cap {cap}");
        assert_eq!(bottom.steps, steps, "cap {cap}");
    }
}
