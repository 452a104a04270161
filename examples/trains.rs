//! Michalski's trains: the classic ILP teaching problem, solved with the
//! raw engine API (saturate → search → inspect) to show what happens under
//! the covering loop's hood.
//!
//! ```sh
//! cargo run --release --example trains
//! ```

fn main() {
    let ds = p2mdie::datasets::trains(10, 3);
    println!(
        "dataset: {} — {} eastbound / {} westbound trains",
        ds.name,
        ds.examples.num_pos(),
        ds.examples.num_neg()
    );

    // Step 1: saturate the first eastbound train into its bottom clause.
    let seed = &ds.examples.pos[0];
    println!("\nseed example: {}", seed.display(&ds.syms));
    let bottom = ds
        .engine
        .saturate(seed)
        .expect("seed matches the head mode");
    println!("bottom clause ⊥e has {} body literals:", bottom.body_len());
    for (i, bl) in bottom.lits.iter().enumerate().take(12) {
        println!(
            "  [{i:>2}, depth {}] {}",
            bl.depth,
            bl.lit.display(&ds.syms)
        );
    }
    if bottom.body_len() > 12 {
        println!("  ... and {} more", bottom.body_len() - 12);
    }

    // Step 2: breadth-first search through ⊥e's subset lattice.
    let (kb, settings) = (&ds.engine.kb, &ds.engine.settings);
    let out = p2mdie::ilp::search_rules(kb, settings, &bottom, &ds.examples, None, &[]);
    println!(
        "\nsearch evaluated {} candidate rules ({} inference steps), {} good:",
        out.nodes,
        out.steps,
        out.good.len()
    );
    for rule in out.good.iter().take(5) {
        println!(
            "  score {:>3}  [{} pos / {} neg]  {}",
            rule.score,
            rule.pos,
            rule.neg,
            rule.shape.to_clause(&bottom).display(&ds.syms)
        );
    }

    // Step 3: the full covering loop.
    let run = ds.engine.run_sequential(&ds.examples);
    println!("\nfinal theory ({} epochs):", run.epochs);
    for rule in &run.theory {
        println!("  {}", rule.clause.display(&ds.syms));
    }
}
