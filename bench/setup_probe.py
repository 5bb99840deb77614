"""Time one fresh set-up of the fog node in a new interpreter.

Usage: python3 setup_probe.py <src dir> <workload> [<keys.json>]

Covers the package import, config load and engine construction; for the
``link`` workload also receiver start, connect and the RSA handshake. Key
generation is input preparation and happens before, in the parent. Prints
the seconds taken as its last line.
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    src, workload = Path(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(src))
    import loiterwatch
    from loiterwatch.fuzzy import default_config

    if not Path(loiterwatch.__file__).resolve().is_relative_to(src.resolve()):
        print(f"setup_probe: imported {loiterwatch.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2
    camera = loiterwatch.CameraContext(camera_id="cam-probe")
    loiterwatch.FogPipeline(loiterwatch.FuzzyEngine(default_config()),
                            cameras={camera.camera_id: camera})
    receiver = sender = None
    if workload == "link":
        from loiterwatch.transport import FeatureSender, FogReceiver, TransportConfig

        with open(sys.argv[3], encoding="utf-8") as fh:
            keys = json.load(fh)
        mode = "handshake-then-symmetric"
        receiver = FogReceiver(TransportConfig(mode=mode, server_private_key_pem=keys["private"]))
        receiver.start()
        sender = FeatureSender(TransportConfig(mode=mode, port=receiver.port,
                                               server_public_key_pem=keys["public"]))
        sender.connect()
    elapsed = perf_counter() - STARTED
    if sender is not None:
        sender.close()
    if receiver is not None:
        receiver.stop()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
