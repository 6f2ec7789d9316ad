//! Reproduce **Table I**: which application functions are implemented as
//! hardware cores in each automatically generated architecture.
//!
//! The table is regenerated from the DSL sources themselves: each
//! architecture's source is parsed and its nodes mapped back to the
//! application functions, so the table reflects what the flow *actually
//! builds*, not a hand-maintained list.

use accelsoc_apps::archs::{arch_dsl_source, Arch};
use accelsoc_apps::otsu::STAGES;
use accelsoc_bench::{save_json, Table};
use accelsoc_core::dsl::parse;

fn main() {
    // One column per chain task; a node named after the task's kernel
    // (Listing 4's names) puts that task in hardware.
    let mut header = vec!["Solution"];
    header.extend(STAGES.iter().map(|s| s.task));
    let mut table = Table::new(header);
    let mut records = Vec::new();
    for arch in Arch::all() {
        let g = parse(&arch_dsl_source(arch)).expect("arch DSL parses");
        let in_hw = |kernel: &str| g.node(kernel).is_some();
        let cells: Vec<String> = STAGES
            .iter()
            .map(|s| if in_hw(s.kernel) { "x" } else { "" }.to_string())
            .collect();
        records.push(serde_json::json!({
            "arch": arch.name(),
            "hw_functions": STAGES
                .iter()
                .filter(|s| in_hw(s.kernel))
                .map(|s| s.task)
                .collect::<Vec<_>>(),
        }));
        let mut row = vec![arch.name().to_string()];
        row.extend(cells);
        table.row(row);
    }
    println!("== Table I: summary of the automatically generated implementations ==\n");
    print!("{}", table.render());
    println!("\n(paper Table I: Arch1 = histogram; Arch2 = otsuMethod; Arch3 = histogram+otsuMethod; Arch4 = all four — identical sets)");
    let p = save_json("table1", &records);
    println!("record: {}", p.display());
}
