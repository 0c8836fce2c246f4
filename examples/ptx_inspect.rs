//! Inspect the PTX side of the pipeline: print a generated kernel exactly
//! as the paper's Fig. 2 shows one, parse it back, build the dependency
//! graph `G = {V,E}`, and report how small the branch slice `G_v*` is —
//! the quantity that makes the dynamic code analysis fast.
//!
//! ```text
//! cargo run --release --example ptx_inspect
//! ```

use ptx_analysis::{branch_slice, slice_fraction, DepGraph};
use ptx_codegen::Template;
use std::sync::Arc;

fn main() {
    // A Fig. 2-style elementwise kernel.
    let kernel = Template::ActRelu.build();
    println!("--- generated PTX ({}) ---", kernel.name);
    println!("{}", ptx::printer::kernel(&kernel));

    // Round-trip through the text form, like the paper's parser does.
    let mut module = ptx::Module::new("sm_61");
    module.kernels = Arc::clone(ptx_codegen::templates::kernels());
    let text = ptx::printer::module(&module);
    let parsed = ptx::parse_module(&text).expect("parse own output");
    println!(
        "module: {} kernels, {} instructions, round-trips through text: {}",
        parsed.kernels.len(),
        parsed.total_instructions(),
        parsed.kernels.len() == module.kernels.len()
    );

    // Dependency graph + slice statistics per kernel.
    println!("\n--- dependency graph and branch slice G_v* per kernel ---");
    println!(
        "{:24} {:>7} {:>7} {:>9} {:>10}",
        "kernel", "instrs", "edges", "slice", "fraction"
    );
    for k in module.kernels.iter() {
        let g = DepGraph::build(k);
        let slice = branch_slice(k);
        println!(
            "{:24} {:>7} {:>7} {:>9} {:>9.0}%",
            k.name,
            g.len(),
            g.num_edges(),
            slice.len(),
            100.0 * slice_fraction(k)
        );
    }
    println!(
        "\nThe dynamic code analysis only *evaluates* the slice; everything else \
         is merely counted. That is the paper's answer to why it beats \
         cycle-level simulation."
    );
}
