//! Tab. 1 harness: LoC reduction of Blueprint implementations. It has no separate smoke size.
use blueprint_bench::{tables, Run};
fn main() {
    let name = "table1_loc.txt";
    Run::from_args().emit(&tables::table1(), name, name);
}
