#!/bin/sh
# End-to-end exercise of the vmi-img CLI against real files: the paper's
# §4.4 chaining workflow plus the extended subcommands.
set -e

VMI_IMG="$1"
[ -x "$VMI_IMG" ] || { echo "usage: $0 <path-to-vmi-img>"; exit 2; }

DIR=$(mktemp -d /tmp/vmi-img-cli-XXXXXX)
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

echo "--- create chain (base <- cache <- cow)"
"$VMI_IMG" create base.img 256M -f raw
"$VMI_IMG" create centos.cache 256M -b base.img -q 32M -c 512
"$VMI_IMG" create vm0.cow 256M -b centos.cache

echo "--- info shows the cache extension"
"$VMI_IMG" info centos.cache | grep -q "VMI cache: yes"
"$VMI_IMG" info centos.cache | grep -q "cache quota: 32.0 MiB"

echo "--- chain shows the permission dance"
CHAIN=$("$VMI_IMG" chain vm0.cow)
echo "$CHAIN" | grep -q "VMI cache, rw"   # cache keeps write permission
echo "$CHAIN" | grep -q "raw, ro"         # base demoted read-only

echo "--- check is clean on fresh images"
"$VMI_IMG" check centos.cache
"$VMI_IMG" check vm0.cow

echo "--- map on an empty overlay"
"$VMI_IMG" map vm0.cow | grep -q "0 B data"

echo "--- resize grows the virtual disk"
"$VMI_IMG" resize vm0.cow 512M
"$VMI_IMG" info vm0.cow | grep -q "512.0 MiB"

echo "--- invalid invocations fail"
if "$VMI_IMG" create bad.qcow2 0 2>/dev/null; then exit 1; fi
if "$VMI_IMG" info nonexistent.qcow2 2>/dev/null; then exit 1; fi
if "$VMI_IMG" commit base.img 2>/dev/null; then exit 1; fi

echo "--- commit a plain overlay"
"$VMI_IMG" create mid.qcow2 64M
"$VMI_IMG" create top.qcow2 64M -b mid.qcow2
"$VMI_IMG" commit top.qcow2

# A fresh 64M image with 64 KiB clusters lays out: cluster 0 header,
# cluster 1 refcount table (0x10000), cluster 2 refcount block (0x20000),
# cluster 3 L1 table (0x30000). The pokes below rely on that layout.
echo "--- corruption: out-of-file L1 pointer -> check exits 2"
"$VMI_IMG" create scratch.qcow2 64M
cp scratch.qcow2 corrupt.qcow2
printf '\200\000\001\000\000\000\000\000' \
  | dd of=corrupt.qcow2 bs=1 seek=196608 conv=notrunc 2>/dev/null
RC=0; "$VMI_IMG" check corrupt.qcow2 >/dev/null || RC=$?
[ "$RC" -eq 2 ] || { echo "expected exit 2, got $RC"; exit 1; }
"$VMI_IMG" check corrupt.qcow2 --json | grep -q '"corruptions": 1'

echo "--- oversized L1 table in the header -> info fails cleanly (exit 1)"
cp scratch.qcow2 bigl1.qcow2
printf '\377\377\377\377' \
  | dd of=bigl1.qcow2 bs=1 seek=36 conv=notrunc 2>/dev/null
RC=0; "$VMI_IMG" info bigl1.qcow2 >/dev/null 2>err.txt || RC=$?
[ "$RC" -eq 1 ] || { echo "expected exit 1, got $RC"; exit 1; }
grep -q unsupported err.txt

echo "--- L1 table running past the end of the file -> info exits 1, corrupt"
# 4 Mi entries (32 MiB, within the L1 size bound) at 0x30000 in a file
# of a few clusters.
cp scratch.qcow2 eofl1.qcow2
printf '\000\100\000\000' \
  | dd of=eofl1.qcow2 bs=1 seek=36 conv=notrunc 2>/dev/null
RC=0; "$VMI_IMG" info eofl1.qcow2 >/dev/null 2>err.txt || RC=$?
[ "$RC" -eq 1 ] || { echo "expected exit 1, got $RC"; exit 1; }
grep -q corrupt err.txt

echo "--- check --repair clears the bad pointer and exits 0"
"$VMI_IMG" check corrupt.qcow2 --repair | grep -q "1 entries cleared"
"$VMI_IMG" check corrupt.qcow2

echo "--- leak: stray refcount on an unreferenced cluster -> exits 3"
cp scratch.qcow2 leak.qcow2
dd if=/dev/zero of=leak.qcow2 bs=1 seek=327679 count=1 conv=notrunc \
  2>/dev/null
printf '\000\001' | dd of=leak.qcow2 bs=1 seek=131080 conv=notrunc \
  2>/dev/null
RC=0; "$VMI_IMG" check leak.qcow2 >/dev/null || RC=$?
[ "$RC" -eq 3 ] || { echo "expected exit 3, got $RC"; exit 1; }
"$VMI_IMG" check leak.qcow2 --repair | grep -q "1 leaks dropped"
"$VMI_IMG" check leak.qcow2

echo "--- dirty bit reported by check --json, cleared by --repair"
cp scratch.qcow2 dirty.qcow2
printf '\001' | dd of=dirty.qcow2 bs=1 seek=79 conv=notrunc 2>/dev/null
"$VMI_IMG" check dirty.qcow2 --json | grep -q '"dirty": 1'
"$VMI_IMG" check dirty.qcow2 --repair --json | grep -q '"repaired": 1'
"$VMI_IMG" check dirty.qcow2 --json | grep -q '"dirty": 0'

echo "--- journaled image: create, info, dirty repair via replay"
"$VMI_IMG" create journ.qcow2 64M -j 64
"$VMI_IMG" info journ.qcow2 | grep -q "refcount journal: 64 sectors"
"$VMI_IMG" check journ.qcow2 --json | grep -q '"journal_sectors": 64'
# Byte 79 holds dirty (0x01) AND the journal feature bit (0x02).
printf '\003' | dd of=journ.qcow2 bs=1 seek=79 conv=notrunc 2>/dev/null
"$VMI_IMG" check journ.qcow2 --repair | grep -q "journal replay"
"$VMI_IMG" check journ.qcow2 --json | grep -q '"dirty": 0'
# Re-dirty: repair only replays on a dirty image.
printf '\003' | dd of=journ.qcow2 bs=1 seek=79 conv=notrunc 2>/dev/null
"$VMI_IMG" check journ.qcow2 --repair --json \
  | grep -q '"journal_replayed": 1'
"$VMI_IMG" check journ.qcow2 --json | grep -q '"dirty": 0'

echo "--- corrupt journal header falls back to full rebuild"
cp journ.qcow2 jfall.qcow2
JOFF=$("$VMI_IMG" info jfall.qcow2 >/dev/null 2>&1; python3 - <<'PYEOF'
import struct
# The journal header extension (magic 0x764A524E) lives in the header
# extension area after the 104-byte v3 header.
data = open('jfall.qcow2', 'rb').read(4096)
pos = 104
while pos + 8 <= len(data):
    etype, elen = struct.unpack('>II', data[pos:pos + 8])
    if etype == 0x764A524E:
        print(struct.unpack('>Q', data[pos + 8:pos + 16])[0])
        break
    if etype == 0:
        break
    pos += 8 + ((elen + 7) // 8) * 8
PYEOF
)
[ -n "$JOFF" ] || { echo "journal extension not found"; exit 1; }
dd if=/dev/zero of=jfall.qcow2 bs=1 seek="$JOFF" count=512 conv=notrunc \
  2>/dev/null
printf '\003' | dd of=jfall.qcow2 bs=1 seek=79 conv=notrunc 2>/dev/null
"$VMI_IMG" check jfall.qcow2 --repair | grep -q "fell back to full rebuild"
"$VMI_IMG" check jfall.qcow2 --json | grep -q '"dirty": 0'

echo "--- manifest: empty node reports no valid generation, exits 1"
RC=0; "$VMI_IMG" manifest node0 >/dev/null || RC=$?
[ "$RC" -eq 1 ] || { echo "expected exit 1, got $RC"; exit 1; }

echo "--- manifest --init publishes generation 1 into slot a"
"$VMI_IMG" manifest node0 --init | grep -q "generation: 1"
[ -f node0.a ] || { echo "slot a not written"; exit 1; }
"$VMI_IMG" manifest node0 | grep -q "slot a:     generation 1"
"$VMI_IMG" manifest node0 | grep -q "slot b:     missing"

echo "--- manifest --add alternates slots and bumps the generation"
"$VMI_IMG" manifest node0 --add img-0 cache-img-0.qcow2 32M \
  | grep -q "generation: 2"
[ -f node0.b ] || { echo "slot b not written"; exit 1; }
"$VMI_IMG" manifest node0 --add img-1 cache-img-1.qcow2 16M \
  | grep -q "generation: 3"
"$VMI_IMG" manifest node0 | grep -q "img-0"
"$VMI_IMG" manifest node0 | grep -q "cache-img-1.qcow2"
"$VMI_IMG" manifest node0 --json | grep -q '"valid": true'
"$VMI_IMG" manifest node0 --json | grep -q '"generation": 3'

echo "--- manifest: a torn newest slot falls back to the older generation"
# Generation 3 lives in slot a (1->a, 2->b, 3->a); flip one payload byte.
printf '\377' | dd of=node0.a bs=1 seek=60 conv=notrunc 2>/dev/null
"$VMI_IMG" manifest node0 | grep -q "generation: 2"
"$VMI_IMG" manifest node0 | grep -q "slot a:     corrupt"

echo "--- manifest: both slots torn means no valid generation"
printf '\377' | dd of=node0.b bs=1 seek=60 conv=notrunc 2>/dev/null
RC=0; "$VMI_IMG" manifest node0 >/dev/null || RC=$?
[ "$RC" -eq 1 ] || { echo "expected exit 1, got $RC"; exit 1; }
"$VMI_IMG" manifest node0 --json | grep -q '"valid": false'

echo "ALL CLI CHECKS PASSED"
