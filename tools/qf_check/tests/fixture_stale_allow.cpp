// qf_check fixture: stale-allow — a suppression that suppresses nothing
// hides the next real finding on its line, so it is itself a finding:
// one on a line where its check no longer fires, and one whose check
// name is misspelled (the misspelling also leaves the static unsuppressed).

namespace fixture {

inline int clean_line() {
  return 1;  // qf-allow(mutable-static): FINDING: stale-allow (nothing to suppress)
}

inline int misspelled_check() {
  static int counter = 0;  // qf-allow(mutable-statc): FINDING: stale-allow and mutable-static
  return ++counter;
}

}  // namespace fixture
