"""Fair exchange of RSA signatures through certified encrypted signatures.

Two clients swap RSA signatures (or data for a signature) so that either
both sides end up with a verified item or neither does.  A's signature
travels encrypted under a semi-trusted third party's ElGamal key together
with a certificate that anyone can check against the ciphertext half W
and a blinded commitment to V, never against V itself; the third party
is contacted only when something goes wrong and can restore fairness by
blind decryption without ever learning the signature.

The package is a library plus a simulated-network harness: deterministic
party state machines, an in-process transport with fault injection, a
transcript auditor, and a small CLI (`fairex`).  The package root exports
nothing: each name is imported from the module that defines it, e.g.
`fairex.keys.generate_system_params` or `fairex.cli.cli_main`, so a
command imports only the modules it uses.
"""
