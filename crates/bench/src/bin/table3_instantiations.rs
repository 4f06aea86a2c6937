//! Tab. 3 harness: instantiation LoC. It has no separate smoke size.
use blueprint_bench::{tables, Run};
fn main() {
    let name = "table3_instantiations.txt";
    Run::from_args().emit(&tables::table3(), name, name);
}
