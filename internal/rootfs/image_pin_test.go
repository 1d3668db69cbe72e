package rootfs_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lupine/internal/apps"
	"lupine/internal/rootfs"
)

// imagePins are sha256 digests of the bytes every registry app's ext2
// rootfs streams, plain and with the KML-patched libc, in that order. The writer's
// layout (inode numbering, block order, geometry) is part of the
// contract: a change to how images are written keeps every digest.
var imagePins = map[string][2]string{
	"nginx": {
		"0a746ef82de2f5a070a093dff6d6bc5315d864c571383012a40e5f90a14f34bb",
		"192e81a6a62719e85c3ede52fa76ed6d4d9ae98e0e2b28b0858c5fd216738000",
	},
	"postgres": {
		"166b2a73e4d31d3e92949deb04ab04a9d75f28a50ab8c92ef45bf3171c384eda",
		"0494b79b72937e2cb33ff0201c7d41b14b363c5a409684b7e6ed32129b8e49c3",
	},
	"httpd": {
		"d29d752a502c2d0a6deb24a38bc710141f4e83cbba1cdae2ade154c4be55b418",
		"9e62c2b41bc63aa85dad9e77eafa709128c33436eac67d0affb92d5e6ab68bcf",
	},
	"node": {
		"67099bf6ab1e5eac4c27f3ff905504ef52a89e755b2989e6851987c29f3ebe03",
		"559f1757e89d7c1b33adf5aa768d069254c921181b179cabbb1af20772fd596a",
	},
	"redis": {
		"738052ee06926a68b37faa0646a59a3f3a86a0b91f6b39d706f6cc4b4d63a3fc",
		"f498b4c331396ea81208db795bfff9275f3fd3babafdbd192c41127283f27780",
	},
	"mongo": {
		"f4ce52ab6e18ab784002129d433fc43d3378fc921a79e0a1470202d33ae0e14d",
		"140e4e66c9f1b48526db16898f82f21b5482dd0141b7b72fb0ada874f67dd3b4",
	},
	"mysql": {
		"24b87326eac393215b1d7abb16db4a6fe0b118e2c4869defa8ba6aa0055b38bf",
		"2481ba3f5bf449d6ddf24570f539b4763129945d8d2539304e00014f4fd460a1",
	},
	"traefik": {
		"a678bd4f7b059be59f45d980fe428100c6a8f69e2b40bf42d335d8cbe07facbf",
		"b5ce41c2edc2a98fbb9cb34bb1dea0f70155c6ee778c1867cc698a3268b72262",
	},
	"memcached": {
		"90de9629a66145a4f6d728bd4a7265f697b1fa9bb58c44f803f0a1da6d795c14",
		"e98ab3b99dc8c9ce8f2efc2708e3c429963ebc63576511a953baf201439ca3a6",
	},
	"hello-world": {
		"8a8aa272160aa398bea97d33d2f937a5e3395c4a9aac4730a585c6962217e337",
		"ced8a819ddb9ec9146e1d5e16b0e3d1521b04b6e8f0d3db13112e3752cfd627d",
	},
	"mariadb": {
		"8be9744d4b492f01e3c230d541820ea42ecff5ee86e55ec78769da622571586e",
		"36223b79592da9e5b00985c1b7f3db5c9df7653d53586ac0f2de34867e6a9bdb",
	},
	"golang": {
		"15606187af76d6d8c587ef15afe6f80ed33eedbbc91b67437bfe211ccc478293",
		"4d4f9353abbc3c826a1c46e8d4c313a989d402f41970067d501258cb5d152adf",
	},
	"python": {
		"d145da886b72c9644b04970a5ea36f31c8474bdc9c447bedc3812188f0569c4d",
		"3dc31860812d3e39fa129ca6874c1ebf64a324e94c729d5c0d83836c7e043ee9",
	},
	"openjdk": {
		"a3db154d25ea81cc9974090dd7ed9f80095408ce46b6c4582eb3b3e03fab7d53",
		"04f510df4258b8b37191357fac6866f899af091057a9d9ae469689a953d1de14",
	},
	"rabbitmq": {
		"cb9326e0a33134538473fd6251e43c90823a83bea5e1ad1c4fac9c256c44e31b",
		"4cafb8517e7827899ee8d7fdaee5e00990a8e5cf1ccd087b9ede87f79d45d191",
	},
	"php": {
		"4caeeb817cfe814498387f11d8fc7386af139cbc6df11b23e57d290f512b2d50",
		"0ab8e193c05766b212ec1e06dd3d3dc83767529f3da1d08c038ad95121bf28b8",
	},
	"wordpress": {
		"e208e43e6c942bceda502daa7fcf4c65b0a29861b4ce077b36695e1f7e239ddf",
		"a386f1a7859b6fbc4a8aaf28540130dfa6dea22e03d7e87495fb91ca62a72139",
	},
	"haproxy": {
		"7a12bd94295b68d9510c04eeef1c4438e1e50554669fc448d76b53b533bcfe26",
		"88d613c3a650f01288f408cde98501c37a140b82ae81a471049d017f4adc6436",
	},
	"influxdb": {
		"07d7d70bec8c382c927e39cb1c28a25a8a316bc0a9d58254649ec57124118a67",
		"a2154fbcaf851d60cb87d8fd2c574e79919ce0369b6023c2b1035252cc94acc0",
	},
	"elasticsearch": {
		"a302db13b90dedddfc5d0004e1295ccc57b7c315e98fd2a320f5764e2d00fdf5",
		"d1aa3a4bea312677b145b4829831c9efb4272b08267672c5345424d2090f77f7",
	},
}

func TestImageBytesPinned(t *testing.T) {
	t.Parallel()
	for _, a := range apps.Registry() {
		for i, kml := range []bool{false, true} {
			img, err := rootfs.BuildExt2(a.ContainerImage(), a.Manifest(), kml)
			if err != nil {
				t.Fatalf("%s kml=%v: %v", a.Name, kml, err)
			}
			h := sha256.New()
			if _, err := img.WriteTo(h); err != nil {
				t.Fatal(err)
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), imagePins[a.Name][i]; got != want {
				t.Errorf("%s kml=%v: image sha256 %s, pinned %s", a.Name, kml, got, want)
			}
		}
	}
	if len(imagePins) != len(apps.Registry()) {
		t.Errorf("%d apps pinned, registry has %d", len(imagePins), len(apps.Registry()))
	}
}
