//! Fixture: rule `dead-pub`. A second file of the `dead` crate: what it
//! names is still named only inside that crate.

use crate::crate_local;

fn run() {
    crate_local();
    crate::crate_local();
}
