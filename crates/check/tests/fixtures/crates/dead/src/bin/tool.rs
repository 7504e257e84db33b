//! Fixture: rule `dead-pub`. A binary of the `dead` package is a crate of
//! its own, so what it names from the library is named by another crate.

fn main() {
    dead::for_the_binary();
}
