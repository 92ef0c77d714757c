"""Every pinned CLI run: (group, argv, exit code, sha1 of its stdout).

The CLI's stdout bytes and exit codes are a fixed contract.  Tier-1 runs
each group in process, one test per group in test_cli.py; CI runs every
row through the installed ``dnacyclic`` entry point.  A new pin is one
row.  Tier-1 leaves out the CI_ONLY groups: ``search_n10`` walks 1.8M
candidates, about 5 s for its three runs; ``spellings`` holds argv only
the full argparse parser reads, whose in-process agreement with the
option-table reader test_direct_dispatch_matches_full_parser checks, so
what they add is the installed entry point reading ``sys.argv``.
"""

import json

EXAMPLE_SPEC = json.dumps({"n": 8, "generators": [
    {"f2": "x^6+x^4+x^2+1", "u": "x^5+x", "u2": "x^4+x^2"}]})
ZERO_SPEC = json.dumps({"n": 4, "generators": []})
# n = 7, f = x^3 + x + 1: dim 15, so 32,768 lines over several writes.
ODD_SPEC = json.dumps({"n": 7, "generators": [
    {"f2": "x^3+x+1", "u": "x^4+x^2+x", "u2": "x^2"}]})
# The longest spec the CLI accepts.  The dual reports' digests are pinned
# so that every change to the kernel or the bases must reproduce them.
LONG_SPEC = json.dumps({"n": 1024, "generators": [
    {"f2": "x^512+1", "u": "x^3+x", "u2": "x^7+1"}]})
# The full and the zero code at the bound, whose duals' closures insert
# the most vectors for the fewest basis rows.
FULL_LONG_SPEC = json.dumps({"n": 1024, "generators": [{"f2": "1"}]})
ZERO_LONG_SPEC = json.dumps({"n": 1024, "generators": []})
# An odd length just under the bound: x^1023 + 1 has no repeated
# factor, and the report carries no presentation claims.
ODD_LONG_SPEC = json.dumps({"n": 1023, "generators": [
    {"f2": "x^341+1", "u": "x^3+x", "u2": "x^7+1"}]})
WITNESS_SPEC = '{"n":4,"generators":[{"f2":"x^3+x^2+x+1","u":"1"}]}'
THREE_GEN_SPEC = '{"n":6,"generators":[{"f2":"x^2+1"},{"u2":"x+1"},{"u":"1"}]}'

CI_ONLY = ("search_n10", "spellings")

# A tier-1 test id may carry a row's index within its group, so a new
# row goes at the end of its group.
PINS = [
    ("search", ["search", "--n", "8", "--require", "rc"], 0,
     "5ac9954b306be864e4d97933756254404231fc67"),
    ("search", ["search", "--n", "4", "--max-configs", "3"], 3,
     "497f2ff384962e5d506e9d874b30a689db26134e"),
    ("search", ["search", "--n", "6", "--require", "reversible"], 0,
     "6cccb194c1a6bbc70ff5cc8977e7cfb1bb9107e3"),
    # Truncated by the dim cap, then filtered by distance.
    ("search", ["search", "--n", "6", "--cap", "8", "--min-distance", "2"], 3,
     "4e811a31612212224f36b3a3870c1b8be105814f"),
    # At n = 8 every reversible hit is rc-closed, so both modes print
    # the same bytes.
    ("search", ["search", "--n", "8", "--require", "reversible"], 0,
     "5ac9954b306be864e4d97933756254404231fc67"),
    ("search", ["search", "--n", "6", "--require", "rc"], 0,
     "7565d268e36167a1b257c4dcf45a8b7e9f6fa198"),
    ("search", ["search", "--n", "4"], 0,
     "2bb50d780d5ff39880979aceec1081249fd46960"),
    # With a budget past the walk, rc and reversible both exit 0; rc with
    # the default flags stops at --max-configs (1,000,000) in the middle
    # of the walk.
    ("search_n10", ["search", "--n", "10", "--require", "rc",
                    "--max-configs", "3000000", "--cap", "30"], 0,
     "e06d42defb57485e13a5b7a0356eb76b91ee61b1"),
    ("search_n10", ["search", "--n", "10", "--require", "reversible",
                    "--max-configs", "3000000", "--cap", "30"], 0,
     "59a86c52410920dfdeb5a057ddc4fd29525da12f"),
    ("search_n10", ["search", "--n", "10", "--require", "rc"], 3,
     "a85a844fc439b6d12823b9470e99434a1ff5f42a"),
    ("enumerate", ["enumerate", "--spec", EXAMPLE_SPEC, "--format", "dna"], 0,
     "45e60d3c092bab8da98fbe24127f66f266dfeff5"),
    ("enumerate", ["enumerate", "--spec", EXAMPLE_SPEC, "--format", "tokens"],
     0, "934f9f6f5c1babaf8e9132ae8d811ac6750f3e7a"),
    ("enumerate", ["enumerate", "--spec", ODD_SPEC, "--format", "dna"], 0,
     "24369f68f90edb640fc5b57f59963a14e1bddd97"),
    ("enumerate", ["enumerate", "--spec", ODD_SPEC, "--format", "tokens"], 0,
     "103e260e8992a2845b0b1f9ec662ddbd0f22ca39"),
    ("enumerate", ["enumerate", "--spec", ZERO_SPEC, "--format", "dna"], 0,
     "dd132b7ca47a402ddfe4edbcc6ee361c1c88389b"),
    ("enumerate", ["enumerate", "--spec", ZERO_SPEC, "--format", "tokens"], 0,
     "bed9e7378f320dcf84421b328cc19b80befc62fa"),
    # dim 6 above the cap: exit 3 before any line is written.
    ("enumerate", ["enumerate", "--spec", EXAMPLE_SPEC, "--format", "dna",
                   "--cap", "5"], 3,
     "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    # The dual reports at the length bound n = 1024.
    ("dual", ["dual", "--spec", LONG_SPEC, "--flavor", "hermitian"], 0,
     "cf68ca426e72df295c20ba48fb13ea37c0d9081b"),
    ("dual", ["dual", "--spec", LONG_SPEC, "--flavor", "euclidean"], 0,
     "89d7166810e73860f1627a6a359f9db1f966a1e6"),
    ("dual", ["dual", "--spec", FULL_LONG_SPEC, "--flavor", "hermitian"], 0,
     "cacd45e43fcf6f8018523b05d6641ffff88bcb1c"),
    ("dual", ["dual", "--spec", FULL_LONG_SPEC, "--flavor", "euclidean"], 0,
     "73301a1bb0c5035aedac91b6e576cc359894bcab"),
    ("dual", ["dual", "--spec", ZERO_LONG_SPEC, "--flavor", "hermitian"], 0,
     "95979b555bf76cd1c0f09fa6258900dd490e5368"),
    ("dual", ["dual", "--spec", ZERO_LONG_SPEC, "--flavor", "euclidean"], 0,
     "45a531813d6651eebd81b352e7c347fe98049189"),
    ("dual_odd", ["dual", "--spec", ODD_LONG_SPEC, "--flavor", "hermitian"], 0,
     "9ba057f680c9b86b85e8260537816487bca2aaa6"),
    ("dual_odd", ["dual", "--spec", ODD_LONG_SPEC, "--flavor", "euclidean"], 0,
     "6f668a429be73ad509925e7343642225987a742e"),
    # One report of each shape the JSON writer prints: nested objects,
    # lists of strings, null, booleans, integers, a list of nulls and an
    # empty string.  The digests were recorded before the writer replaced
    # json.dumps, so each report's bytes are those json.dumps wrote.
    ("report", ["table2"], 0, "3aa7b78209ec8e8b02ee8e294edb19a7eb16c534"),
    *(("report", ["check", "--spec", EXAMPLE_SPEC, "--method", method,
                  "--mode", mode], 0, sha1) for method, mode, sha1 in [
        ("theorem", "reversible", "6631bf2e818fc1a626ae2361d29c1e7373c710bd"),
        ("theorem", "rc", "9efec910ca062d1bca76960c562909496fdb945a"),
        ("oracle", "reversible", "21b7e615f1e321bce564199d91f68e7f6ab4d1d0"),
        ("oracle", "rc", "91aec5f93107b33766f2bb82cd0f2fbe8e57533f"),
        ("both", "reversible", "50fb6d11e443bb9fdbc29da30efc730a77fc4b0d"),
        ("both", "rc", "cc1235fd2600cb9e0d75f0bb1136b526dbd29fee"),
    ]),
    # "agreement": false.
    ("report", ["check", "--spec", WITNESS_SPEC, "--mode", "reversible"], 1,
     "9a6719f90e1c1b543ce6f470bdf15f80169a09a6"),
    ("report", ["check", "--spec", WITNESS_SPEC, "--mode", "rc"], 1,
     "4dcd6b6dba498363b27348c3d8d6d46c35dc8a9d"),
    # The theorem's notes and "agreement": null.
    ("report", ["check", "--spec", THREE_GEN_SPEC, "--mode", "rc"], 0,
     "5835d3cf572dc81502da4e50f1201337992cc258"),
    # Cases 1, 2 and 3.
    ("report", ["canonical", "--spec", EXAMPLE_SPEC], 0,
     "40457b0619183c4b936d2a42a68189b45ec20347"),
    ("report", ["canonical", "--spec",
                '{"n":8,"generators":[{"f2":"x^4+1"},{"u2":"x+1"}]}'], 0,
     "2131c7349339aede3fa442f118ebe65fc26bec16"),
    ("report", ["canonical", "--spec", THREE_GEN_SPEC], 0,
     "fa49a69a3503e114182b0619dbfbd3b00eaf708e"),
    ("report", ["distance", "--spec", ZERO_SPEC], 0,
     "35c2f2f040b5d60130e1c54555ec73fccf09d8b2"),
    # Claims not evaluated: a list of six nulls.
    ("report", ["dual", "--spec", '{"n":4,"generators":[{"f2":"x+1"}]}'], 0,
     "ef5524a739d8c2ecf3ea30968735fdb54f1038af"),
    # The check --method both --mode rc report through --flag=value, an
    # abbreviation and reordered options; then the default mode, rc.
    *(("spellings", argv, 0, "cc1235fd2600cb9e0d75f0bb1136b526dbd29fee")
      for argv in [
        ["check", "--spec", EXAMPLE_SPEC, "--method", "both", "--mode=rc"],
        ["check", "--spec", EXAMPLE_SPEC, "--meth", "both", "--mode", "rc"],
        ["check", "--mode", "rc", "--method", "both", "--spec", EXAMPLE_SPEC],
    ]),
    ("spellings", ["check", "--spec", EXAMPLE_SPEC, "--method", "theorem"], 0,
     "9efec910ca062d1bca76960c562909496fdb945a"),
    # Codes of dimension 24, at the default cap, whose distance is 2: each
    # walk stops at its first word of weight 2, where a walk of every
    # socle word would visit 2^24 words.
    ("socles", ["distance", "--spec",
                '{"n":32,"generators":[{"u2":"x^8+1"}]}'], 0,
     "a9ce24c26ee6366f30ec096f7b52465fbe70b8e8"),
    ("socles", ["distance", "--spec",
                '{"n":30,"generators":[{"u2":"x^6+1"}]}'], 0,
     "fd03e58381eef6e43ca25c813d5a7c23dcf12c38"),
    ("socles", ["distance", "--spec",
                '{"n":48,"generators":[{"u2":"x^24+1"}]}'], 0,
     "972941e51e5d3d9a47a4f21fe78c0b91248ba93c"),
]


def pins(group):
    """(argv, exit code, sha1) of each row of the group, in table order."""
    return [(argv, exit_code, sha1)
            for g, argv, exit_code, sha1 in PINS if g == group]
