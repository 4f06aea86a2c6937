//! Tab. 4 harness: plugin LoC. It has no separate smoke size.
use blueprint_bench::{tables, Run};
fn main() {
    let name = "table4_plugins.txt";
    Run::from_args().emit(&tables::table4(), name, name);
}
